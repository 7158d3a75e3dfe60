// Package serve is the toolkit's concurrent experiment-serving engine: a
// sharded slab cache memoizing encoded results, a singleflight layer that
// collapses thundering herds, class-based admission (internal/admit), and
// HTTP handlers — the paper's warehouse-scale serving concerns
// (memory/storage wall, tail predictability, cross-layer co-design)
// applied to the toolkit itself.
// Parameterized requests (ServeWith) fold the resolved assignment into
// the cache key, so every distinct design point memoizes and
// deduplicates independently — the substrate the sweep package fans
// grids out over. cmd/arch21d exposes the engine over HTTP.
package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Cache is a sharded, memoizing byte cache backed by slab segments. Keys
// hash to one of N power-of-two shards, each guarded by its own
// read-write lock: Get holds it shared and writes only atomics (the
// entry's hit word and CLOCK bit, the shard's hit/miss counters);
// everything that moves bytes or the index — Set, AttachAux, TTL expiry,
// deletion, reclamation — holds it exclusively.
//
// Inside a shard, entries live packed inside fixed-size []byte segment
// arenas, located through an open-addressed index of two scalar []uint64
// slices — no per-entry Go object anywhere, so the GC scans O(segments)
// pointers no matter how many millions of entries are cached (the
// paper's memory-wall argument applied to the serving tier itself).
// Entry headers are fixed-width, so the per-entry hit counter is bumped
// in place on Get and a Set whose new payload fits the entry's value
// capacity overwrites in place with no index churn and no allocation.
// Arenas come 8-aligned from the allocator and every entry's size is
// rounded up to 8, so the hit word (offset 0) and state word (offset 36)
// of every entry are aligned for sync/atomic.
//
// Aliasing contract: Get, and store for the bytes it just wrote (the
// engine's miss hands those out as its Raw), return slices of slab
// memory. Such a slice is stable across Gets (only the fixed header words
// mutate afterwards) and across segment reclamation (reclaimed segments
// are dropped to the GC, never reused, so outstanding aliases stay
// intact), but a Set of the same key may overwrite the bytes in place —
// callers must consume the slice before writing the same key, and must
// never modify it. The engine's singleflight layer guarantees it never
// Sets a live key it is concurrently reading.
//
// An entry may carry an auxiliary byte region after its payload (AttachAux,
// GetWithAux): bytes derived from the payload that live and die with it.
// Attaching re-appends the entry rather than writing in place, so the old
// bytes stay intact for readers still holding them; every operation that
// replaces or removes the payload drops the aux with it.
type Cache struct {
	shards []cacheShard
	mask   uint64
	ttl    time.Duration
	// maxShardBytes bounds each shard's segment bytes (0 = unbounded:
	// segments are only compacted, never evicted).
	maxShardBytes int64
	policy        EvictionPolicy
	// now is the clock; replaceable in tests (cf. freecache's custom
	// timer).
	now func() time.Time
}

// EvictionPolicy selects which live entries survive segment reclamation
// when a bounded cache is out of space.
type EvictionPolicy uint8

const (
	// EvictLRU approximates least-recently-used with a CLOCK
	// (second-chance) bit: an entry touched since the previous sweep is
	// re-appended with its bit cleared; an untouched one is evicted.
	EvictLRU EvictionPolicy = iota
	// EvictCost is cost-aware: an entry with any recorded hits survives
	// (its count is halved as it ages), so frequently re-derived results
	// outlive one-shot ones regardless of recency.
	EvictCost
)

// String names the policy for stats and logs.
func (p EvictionPolicy) String() string {
	if p == EvictCost {
		return "cost"
	}
	return "lru"
}

// ParseEvictionPolicy resolves a policy name ("lru", "cost") — the
// -cache-policy flag's parser.
func ParseEvictionPolicy(s string) (EvictionPolicy, error) {
	switch s {
	case "lru":
		return EvictLRU, nil
	case "cost":
		return EvictCost, nil
	}
	return EvictLRU, fmt.Errorf("serve: unknown eviction policy %q (want lru or cost)", s)
}

const (
	// segmentSize is the standard slab arena size; entries larger than a
	// segment get a dedicated arena of their exact size.
	segmentSize = 64 << 10

	// entryHdrLen is the fixed entry header: hits u64 (bumped in place by
	// Get), added i64, ttl i64, keyLen u32, valLen u32, valCap u32, state
	// u32, auxLen u32. Everything is fixed-width so in-place mutation
	// never moves a byte after it. The key, valCap payload bytes and
	// auxLen aux bytes follow, then padding to the next 8-byte boundary.
	entryHdrLen = 44

	offAdded  = 8
	offTTL    = 16
	offKeyLen = 24
	offValLen = 28
	offValCap = 32
	offState  = 36
	offAuxLen = 40

	stateLive     = 1 << 0
	stateAccessed = 1 << 1 // the CLOCK second-chance bit

	// idxEmpty/idxTombstone are the index-slot sentinels; a live slot
	// stores the key hash with idxMark set (so it can never collide with
	// a sentinel).
	idxEmpty     = 0
	idxTombstone = 1
	idxMark      = uint64(1) << 63

	// maxCacheShards clamps the requested shard count: the rounding loop
	// would otherwise overflow into an infinite loop for adversarial
	// values (1<<63 rounds to 0, then n<<=1 sticks at 0 forever), and a
	// shard per key is pure overhead anyway.
	maxCacheShards = 1 << 14
)

// segment is one append-only slab arena. Reclaimed segments are dropped
// whole to the GC (never pooled or rewritten), which is what makes
// Get-returned aliases memory-safe across reclamation.
type segment struct {
	buf  []byte
	used int
	live int // bytes occupied by live entries
	seq  uint64
}

// cacheShard's first cache line holds the only shard words a Get writes;
// what a Get reads sits on the lines after it, and the padding keeps the
// next shard's hot line off this shard's last one.
type cacheShard struct {
	mu sync.RWMutex
	// hits and misses count Get outcomes, under the shared lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [64 - 40]byte

	// segs is oldest-first; appends go to the last segment. segBase is
	// segs[0]'s sequence number — index refs address segments by
	// sequence so reclamation (which shifts the slice) never invalidates
	// them.
	segs    []*segment
	segBase uint64

	// The open-addressed index: idxHash holds idxEmpty, idxTombstone, or
	// hash|idxMark; idxRef packs the entry's location as seq<<32|offset.
	// Linear probing; tombstones keep probe chains intact and are purged
	// on rehash.
	idxHash []uint64
	idxRef  []uint64
	idxMask uint64
	idxLive int // live slots (== live entries)
	idxUsed int // live + tombstoned slots

	bytes int64 // total allocated segment bytes
	dead  int64 // bytes occupied by dead (deleted/superseded) entries

	expired uint64
	evicted uint64
	_       [64 - 136%64]byte
}

// A shard is whole cache lines (this fails to compile otherwise).
var _ [0]struct{} = [unsafe.Sizeof(cacheShard{}) % 64]struct{}{}

// hitWord and stateWord address the two words of the (8-aligned) entry at b
// that Get mutates: holders of the shared lock go through these with
// sync/atomic, holders of the exclusive lock may use plain loads and stores.
func hitWord(b []byte) *uint64   { return (*uint64)(unsafe.Pointer(&b[0])) }
func stateWord(b []byte) *uint32 { return (*uint32)(unsafe.Pointer(&b[offState])) }

// CacheStats aggregates shard counters. JSON tags let servers expose the
// stats directly.
type CacheStats struct {
	// Entries is the number of live (possibly expired but uncollected)
	// entries.
	Entries int `json:"entries"`
	// Hits and Misses count Get outcomes; Expired counts entries
	// dropped because their TTL lapsed.
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Expired uint64 `json:"expired"`
	// Evicted counts live entries dropped by capacity pressure (always 0
	// for an unbounded cache).
	Evicted uint64 `json:"evicted"`
	// Bytes is the total slab arena footprint across shards (allocated,
	// not just occupied).
	Bytes int64 `json:"bytes"`
	// Shards is the shard count.
	Shards int `json:"shards"`
}

// NewCache builds an unbounded cache with at least the requested number
// of shards (rounded up to a power of two, minimum 1, clamped to
// maxCacheShards) and the given TTL. A zero or negative TTL means
// entries never expire.
func NewCache(shards int, ttl time.Duration) *Cache {
	return NewCacheSized(shards, ttl, 0, EvictLRU)
}

// NewCacheSized is NewCache with a byte budget and an eviction policy:
// maxBytes bounds the total slab footprint (approximately — the budget
// is split per shard and enforced at segment granularity), with policy
// choosing which entries survive reclamation. maxBytes <= 0 means
// unbounded (segments are compacted when dead bytes accumulate, never
// evicted).
func NewCacheSized(shards int, ttl time.Duration, maxBytes int64, policy EvictionPolicy) *Cache {
	if shards > maxCacheShards {
		shards = maxCacheShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	c := &Cache{
		shards: make([]cacheShard, n),
		mask:   uint64(n - 1),
		ttl:    ttl,
		policy: policy,
		now:    time.Now,
	}
	if maxBytes > 0 {
		per := maxBytes / int64(n)
		if per < segmentSize {
			per = segmentSize
		}
		c.maxShardBytes = per
	}
	return c
}

// fnv1a hashes a key (inline FNV-1a, no allocation).
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// entrySize is an entry's full slab footprint, rounded up so the next
// entry starts 8-aligned.
func entrySize(keyLen, valCap, auxLen int) int {
	return (entryHdrLen + keyLen + valCap + auxLen + 7) &^ 7
}

// lapsed reports whether the entry at b has outlived its TTL at now.
func lapsed(b []byte, now int64) bool {
	ttl := int64(binary.LittleEndian.Uint64(b[offTTL:]))
	return ttl > 0 && now-int64(binary.LittleEndian.Uint64(b[offAdded:])) > ttl
}

// entryLens reads the three length words of the entry starting at b.
func entryLens(b []byte) (keyLen, valCap, auxLen int) {
	return int(binary.LittleEndian.Uint32(b[offKeyLen:])),
		int(binary.LittleEndian.Uint32(b[offValCap:])),
		int(binary.LittleEndian.Uint32(b[offAuxLen:]))
}

// valCapFor rounds a payload length up to the entry's value capacity:
// 8-byte aligned so a re-encoded result that grew by a few bytes still
// overwrites in place.
func valCapFor(n int) int { return (n + 7) &^ 7 }

func ref(seq uint64, off int) uint64 { return (seq&0xffffffff)<<32 | uint64(uint32(off)) }

// at resolves an index ref to its segment and entry offset. Sequence
// arithmetic is mod 2^32, so refs stay valid across any realistic number
// of reclamations.
func (s *cacheShard) at(r uint64) (*segment, int) {
	idx := int(uint32(r>>32) - uint32(s.segBase))
	return s.segs[idx], int(uint32(r))
}

// find returns the index slot of key's live entry, or -1.
func (s *cacheShard) find(h uint64, key string) int {
	if len(s.idxHash) == 0 {
		return -1
	}
	mark := h | idxMark
	i := h & s.idxMask
	for {
		switch v := s.idxHash[i]; {
		case v == idxEmpty:
			return -1
		case v == mark:
			seg, off := s.at(s.idxRef[i])
			b := seg.buf[off:]
			kl := int(binary.LittleEndian.Uint32(b[offKeyLen:]))
			if string(b[entryHdrLen:entryHdrLen+kl]) == key {
				return int(i)
			}
		}
		i = (i + 1) & s.idxMask
	}
}

// findRef returns the slot whose stored ref equals want (used during
// reclamation, where the entry's old location is the identity).
func (s *cacheShard) findRef(h uint64, want uint64) int {
	mark := h | idxMark
	i := h & s.idxMask
	for {
		switch v := s.idxHash[i]; {
		case v == idxEmpty:
			return -1
		case v == mark && s.idxRef[i] == want:
			return int(i)
		}
		i = (i + 1) & s.idxMask
	}
}

// insert adds a slot for a key known to be absent.
func (s *cacheShard) insert(h, r uint64) {
	if len(s.idxHash) == 0 {
		s.idxHash = make([]uint64, 64)
		s.idxRef = make([]uint64, 64)
		s.idxMask = 63
	} else if 4*(s.idxUsed+1) >= 3*len(s.idxHash) {
		s.rehash()
	}
	mark := h | idxMark
	i := h & s.idxMask
	for {
		v := s.idxHash[i]
		if v == idxEmpty || v == idxTombstone {
			if v == idxEmpty {
				s.idxUsed++
			}
			s.idxHash[i] = mark
			s.idxRef[i] = r
			s.idxLive++
			return
		}
		i = (i + 1) & s.idxMask
	}
}

// rehash grows the index (or just purges tombstones when mostly dead).
// Probe positions depend only on the hash's low bits, which the stored
// mark preserves, so slots reinsert without re-reading keys.
func (s *cacheShard) rehash() {
	n := len(s.idxHash)
	if 2*s.idxLive >= n {
		n *= 2
	}
	oldH, oldR := s.idxHash, s.idxRef
	s.idxHash = make([]uint64, n)
	s.idxRef = make([]uint64, n)
	s.idxMask = uint64(n - 1)
	s.idxUsed, s.idxLive = 0, 0
	for j, v := range oldH {
		if v == idxEmpty || v == idxTombstone {
			continue
		}
		i := v & s.idxMask
		for s.idxHash[i] != idxEmpty {
			i = (i + 1) & s.idxMask
		}
		s.idxHash[i] = v
		s.idxRef[i] = oldR[j]
		s.idxUsed++
		s.idxLive++
	}
}

// killSlot tombstones a slot and marks its entry dead in the slab.
func (s *cacheShard) killSlot(slot int) {
	s.retire(slot)
	s.idxHash[slot] = idxTombstone
	s.idxLive--
}

// retire marks the slot's entry dead in the slab, leaving the slot itself
// for the caller to tombstone or re-point.
func (s *cacheShard) retire(slot int) {
	seg, off := s.at(s.idxRef[slot])
	b := seg.buf[off:]
	size := entrySize(entryLens(b))
	st := binary.LittleEndian.Uint32(b[offState:])
	binary.LittleEndian.PutUint32(b[offState:], st&^stateLive)
	seg.live -= size
	s.dead += int64(size)
}

// head returns a segment with room for size bytes, allocating a fresh
// arena when the current head is full. When allowReclaim is set (the
// normal Set path), a bounded shard first reclaims oldest segments until
// the new arena fits its budget, and an unbounded shard compacts once a
// full segment's worth of dead bytes has accumulated.
func (s *cacheShard) head(c *Cache, size int, allowReclaim bool) *segment {
	if n := len(s.segs); n > 0 {
		if seg := s.segs[n-1]; seg.used+size <= len(seg.buf) {
			return seg
		}
	}
	segSize := segmentSize
	if size > segSize {
		segSize = size
	}
	if allowReclaim {
		if c.maxShardBytes > 0 {
			// Second chance first; if a sweep frees nothing (everything
			// survived), force the next one so the loop always makes
			// progress.
			force := false
			for s.bytes+int64(segSize) > c.maxShardBytes && len(s.segs) > 0 {
				before := s.bytes
				s.reclaimOldest(c, force)
				if s.bytes >= before {
					force = true
				}
			}
		} else if s.dead >= segmentSize && len(s.segs) > 0 {
			s.reclaimOldest(c, false)
		}
		if n := len(s.segs); n > 0 {
			if seg := s.segs[n-1]; seg.used+size <= len(seg.buf) {
				return seg
			}
		}
	}
	seg := &segment{buf: make([]byte, segSize), seq: s.segBase + uint64(len(s.segs))}
	s.segs = append(s.segs, seg)
	s.bytes += int64(segSize)
	return seg
}

// reclaimOldest drops the oldest segment, re-appending the live entries
// the eviction policy spares (all of them in unbounded/compaction mode;
// none under force) and tombstoning the rest. The segment's buffer is
// released to the GC untouched, so previously returned aliases into it
// stay valid.
func (s *cacheShard) reclaimOldest(c *Cache, force bool) {
	seg := s.segs[0]
	copy(s.segs, s.segs[1:])
	s.segs[len(s.segs)-1] = nil
	s.segs = s.segs[:len(s.segs)-1]
	s.segBase++
	s.bytes -= int64(len(seg.buf))
	var deadHere int64
	for off := 0; off+entryHdrLen <= seg.used; {
		b := seg.buf[off:]
		kl, vc, al := entryLens(b)
		size := entrySize(kl, vc, al)
		st := binary.LittleEndian.Uint32(b[offState:])
		if st&stateLive == 0 {
			deadHere += int64(size)
			off += size
			continue
		}
		h := fnv1a(string(b[entryHdrLen : entryHdrLen+kl]))
		slot := s.findRef(h, ref(seg.seq, off))
		survive := true
		if force {
			survive = false
		} else if c.maxShardBytes > 0 {
			switch c.policy {
			case EvictCost:
				survive = binary.LittleEndian.Uint64(b) > 0
			default: // EvictLRU
				survive = st&stateAccessed != 0
			}
		}
		if survive {
			dst := s.head(c, size, false)
			noff := dst.used
			copy(dst.buf[noff:noff+size], seg.buf[off:off+size])
			nb := dst.buf[noff:]
			// Age the survivor so it must earn its next reprieve.
			if c.policy == EvictCost {
				binary.LittleEndian.PutUint64(nb, binary.LittleEndian.Uint64(nb)/2)
			}
			binary.LittleEndian.PutUint32(nb[offState:],
				binary.LittleEndian.Uint32(nb[offState:])&^stateAccessed)
			dst.used += size
			dst.live += size
			s.idxRef[slot] = ref(dst.seq, noff)
		} else {
			s.idxHash[slot] = idxTombstone
			s.idxLive--
			s.evicted++
		}
		off += size
	}
	s.dead -= deadHere
}

// append writes a fresh entry into the slab and indexes it, returning the
// entry's payload bytes.
func (s *cacheShard) append(c *Cache, h uint64, key string, val []byte, added int64) []byte {
	vc := valCapFor(len(val))
	size := entrySize(len(key), vc, 0)
	seg := s.head(c, size, true)
	off := seg.used
	b := seg.buf[off : off+size]
	binary.LittleEndian.PutUint64(b, 0)
	binary.LittleEndian.PutUint64(b[offAdded:], uint64(added))
	binary.LittleEndian.PutUint64(b[offTTL:], uint64(c.ttl))
	binary.LittleEndian.PutUint32(b[offKeyLen:], uint32(len(key)))
	binary.LittleEndian.PutUint32(b[offValLen:], uint32(len(val)))
	binary.LittleEndian.PutUint32(b[offValCap:], uint32(vc))
	binary.LittleEndian.PutUint32(b[offState:], stateLive)
	binary.LittleEndian.PutUint32(b[offAuxLen:], 0)
	copy(b[entryHdrLen:], key)
	copy(b[entryHdrLen+len(key):], val)
	seg.used += size
	seg.live += size
	s.insert(h, ref(seg.seq, off))
	return b[entryHdrLen+len(key) : entryHdrLen+len(key)+len(val) : entryHdrLen+len(key)+len(val)]
}

// Get returns the cached payload for key, bumping the entry's hit counter
// and CLOCK bit in place. Expired entries are evicted lazily on access.
// The returned slice aliases slab memory — see the Cache aliasing
// contract.
func (c *Cache) Get(key string) ([]byte, bool) {
	val, _, ok := c.GetWithAux(key)
	return val, ok
}

// GetWithAux is Get that also returns the entry's aux region (nil when
// none is attached) from the same lookup under the shard's shared lock: a
// hit writes only atomics, and reads the clock only if the entry has a TTL.
func (c *Cache) GetWithAux(key string) (val, aux []byte, ok bool) {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.mu.RLock()
	slot := s.find(h, key)
	if slot < 0 {
		s.misses.Add(1)
		s.mu.RUnlock()
		return nil, nil, false
	}
	seg, off := s.at(s.idxRef[slot])
	b := seg.buf[off:]
	if binary.LittleEndian.Uint64(b[offTTL:]) != 0 {
		if now := c.now().UnixNano(); lapsed(b, now) {
			s.misses.Add(1)
			s.mu.RUnlock()
			c.expire(s, h, key, now)
			return nil, nil, false
		}
	}
	atomic.AddUint64(hitWord(b), 1)
	if st := stateWord(b); atomic.LoadUint32(st)&stateAccessed == 0 {
		atomic.OrUint32(st, stateAccessed)
	}
	s.hits.Add(1)
	kl, vc, al := entryLens(b)
	vl := int(binary.LittleEndian.Uint32(b[offValLen:]))
	lo := off + entryHdrLen + kl
	val = seg.buf[lo : lo+vl : lo+vl]
	if al > 0 {
		aux = seg.buf[lo+vc : lo+vc+al : lo+vc+al]
	}
	s.mu.RUnlock()
	return val, aux, true
}

// expire is the exclusive half of a Get that found key's entry past its
// TTL under the shared lock: drop it, unless a Set got there first.
func (c *Cache) expire(s *cacheShard, h uint64, key string, now int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot := s.find(h, key); slot >= 0 {
		if seg, off := s.at(s.idxRef[slot]); lapsed(seg.buf[off:], now) {
			s.killSlot(slot)
			s.expired++
		}
	}
}

// AttachAux stores aux beside key's payload, provided the entry is live,
// has no aux yet, and its payload is still val — the very slab bytes a Get
// returned, so bytes derived from an entry that has since been replaced
// or moved are never attached to its successor. The entry is re-appended
// with hit count, CLOCK bit, stamp and TTL preserved and the old copy
// retired, never written in place. It reports whether aux was attached;
// it counts as neither a hit nor a miss.
func (c *Cache) AttachAux(key string, val, aux []byte) bool {
	if len(val) == 0 || len(aux) == 0 {
		return false
	}
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	vc := valCapFor(len(val))
	size := entrySize(len(key), vc, len(aux))
	s.mu.Lock()
	defer s.mu.Unlock()
	// Make room before the lookup: reclamation may move or evict the entry.
	dst := s.head(c, size, true)
	slot := s.find(h, key)
	if slot < 0 {
		return false
	}
	seg, off := s.at(s.idxRef[slot])
	b := seg.buf[off:]
	lo := entryHdrLen + len(key)
	if _, _, al := entryLens(b); al != 0 ||
		int(binary.LittleEndian.Uint32(b[offValLen:])) != len(val) || &b[lo] != &val[0] {
		return false
	}
	nb := dst.buf[dst.used : dst.used+size]
	copy(nb, b[:lo+len(val)])
	binary.LittleEndian.PutUint32(nb[offValCap:], uint32(vc))
	binary.LittleEndian.PutUint32(nb[offAuxLen:], uint32(len(aux)))
	copy(nb[lo+vc:], aux)
	s.retire(slot)
	s.idxRef[slot] = ref(dst.seq, dst.used)
	dst.used += size
	dst.live += size
	return true
}

// Set stores a payload under key with the cache's TTL.
func (c *Cache) Set(key string, val []byte) { c.store(key, val, c.now().UnixNano()) }

// SetStamped stores a payload with an explicit insertion time — how a
// tier-2 warm start preserves entry age so a configured TTL keeps its
// meaning across restarts. When the key's live entry has capacity for
// the new payload, the entry is overwritten in place (hit counter reset,
// no index churn, no allocation); otherwise the old entry is tombstoned
// and a fresh one appended.
func (c *Cache) SetStamped(key string, val []byte, addedUnixNano int64) {
	c.store(key, val, addedUnixNano)
}

// store is SetStamped returning the stored payload's slab bytes, under
// the aliasing contract a Get's have.
func (c *Cache) store(key string, val []byte, addedUnixNano int64) []byte {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot := s.find(h, key); slot >= 0 {
		seg, off := s.at(s.idxRef[slot])
		b := seg.buf[off:]
		if kl, vc, al := entryLens(b); len(val) <= vc {
			binary.LittleEndian.PutUint64(b, 0)
			binary.LittleEndian.PutUint64(b[offAdded:], uint64(addedUnixNano))
			binary.LittleEndian.PutUint64(b[offTTL:], uint64(c.ttl))
			binary.LittleEndian.PutUint32(b[offValLen:], uint32(len(val)))
			binary.LittleEndian.PutUint32(b[offState:], stateLive)
			// A new payload invalidates the aux; its bytes fold into the
			// value capacity so the entry's footprint is unchanged.
			binary.LittleEndian.PutUint32(b[offValCap:], uint32(vc+al))
			binary.LittleEndian.PutUint32(b[offAuxLen:], 0)
			lo := entryHdrLen + kl
			copy(b[lo:], val)
			return b[lo : lo+len(val) : lo+len(val)]
		}
		s.killSlot(slot)
	}
	return s.append(c, h, key, val, addedUnixNano)
}

// Hits returns the hit counter for key's entry (0 if absent), without
// counting as an access.
func (c *Cache) Hits(key string) int64 {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.mu.RLock()
	defer s.mu.RUnlock()
	slot := s.find(h, key)
	if slot < 0 {
		return 0
	}
	seg, off := s.at(s.idxRef[slot])
	return int64(atomic.LoadUint64(hitWord(seg.buf[off:])))
}

// Delete removes key. It reports whether an entry was present.
func (c *Cache) Delete(key string) bool {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.find(h, key)
	if slot < 0 {
		return false
	}
	s.killSlot(slot)
	return true
}

// DeletePrefix removes every entry whose key starts with prefix and
// returns how many were removed. It walks all shards, so it is an
// administrative operation, not a hot-path one.
func (c *Cache) DeletePrefix(prefix string) int {
	pfx := []byte(prefix)
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for slot, v := range s.idxHash {
			if v == idxEmpty || v == idxTombstone {
				continue
			}
			seg, off := s.at(s.idxRef[slot])
			b := seg.buf[off:]
			kl := int(binary.LittleEndian.Uint32(b[offKeyLen:]))
			if bytes.HasPrefix(b[entryHdrLen:entryHdrLen+kl], pfx) {
				s.killSlot(slot)
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// KV is one cache entry's key, payload, and insertion time, as returned
// by Dump. The timestamp rides into tier-2 snapshots so a warm-started
// entry keeps its age — a TTL bounds an entry's total life, not its life
// since the latest restart.
type KV struct {
	Key           string
	Val           []byte
	AddedUnixNano int64
}

// Dump copies every live entry's key and payload (shard by shard, each
// under its own lock — a consistent-enough point-in-time view for
// snapshotting; entries are sorted by key so dumps are deterministic).
// Expired-but-uncollected entries are skipped. The returned values are
// copies and safe to retain.
func (c *Cache) Dump() []KV {
	now := c.now().UnixNano()
	var out []KV
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		for slot, v := range s.idxHash {
			if v == idxEmpty || v == idxTombstone {
				continue
			}
			seg, off := s.at(s.idxRef[slot])
			b := seg.buf[off:]
			if lapsed(b, now) {
				continue
			}
			kl := int(binary.LittleEndian.Uint32(b[offKeyLen:]))
			vl := int(binary.LittleEndian.Uint32(b[offValLen:]))
			val := make([]byte, vl)
			copy(val, b[entryHdrLen+kl:entryHdrLen+kl+vl])
			out = append(out, KV{
				Key:           string(b[entryHdrLen : entryHdrLen+kl]),
				Val:           val,
				AddedUnixNano: int64(binary.LittleEndian.Uint64(b[offAdded:])),
			})
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Clear drops every entry and arena (counters are preserved).
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.segBase += uint64(len(s.segs))
		s.segs = nil
		s.idxHash, s.idxRef, s.idxMask = nil, nil, 0
		s.idxLive, s.idxUsed = 0, 0
		s.bytes, s.dead = 0, 0
		s.mu.Unlock()
	}
}

// Stats aggregates counters across shards.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		st.Entries += s.idxLive
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Expired += s.expired
		st.Evicted += s.evicted
		st.Bytes += s.bytes
		s.mu.RUnlock()
	}
	return st
}
