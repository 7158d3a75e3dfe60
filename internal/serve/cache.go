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
	"encoding/binary"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Cache is a sharded, memoizing byte cache backed by slab segments. Keys
// hash to one of N power-of-two shards, each guarded by per-processor
// reader stripes: Get read-locks its processor's and writes only atomics
// (the entry's CLOCK bit, once per sweep, and the stripe's hit/miss
// counter); everything that moves bytes or the index — Set, AttachAux,
// deletion, reclamation — holds every stripe exclusively. The cache has no
// clock: a result is a function of its key, so an entry lives until it is
// replaced, deleted or evicted.
//
// Inside a shard, entries live packed inside fixed-size []byte segment
// arenas, located through an open-addressed index of two scalar []uint64
// slices — no per-entry Go object anywhere, so the GC scans O(segments)
// pointers no matter how many millions of entries are cached (the
// paper's memory-wall argument applied to the serving tier itself).
// Entry headers are fixed-width, so Get sets the CLOCK bit in place and
// a Set whose new payload fits the entry's value capacity overwrites in
// place with no index churn and no allocation. Arenas come 8-aligned
// from the allocator and every entry's size is rounded up to 8, so the
// state word (offset 12) of every entry is aligned for sync/atomic.
//
// Aliasing contract: Get, and store for the bytes it just wrote (the
// engine's miss hands those out as its Raw), return slices of slab
// memory. Such a slice is stable across Gets (only the state word
// mutates afterwards) and across segment reclamation (reclaimed segments
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
//
// A bounded cache evicts by CLOCK: an entry read since the previous sweep
// of its segment is re-appended with its bit cleared, an unread one is
// dropped.
type Cache struct {
	shards []cacheShard
	mask   uint64
	// maxShardBytes bounds each shard's segment bytes (0 = unbounded:
	// segments are only compacted, never evicted).
	maxShardBytes int64
}

// EvictionPolicy is a shim: CLOCK is the cache's one policy, and the type,
// EvictLRU and NewCacheSized's policy argument stay only because the
// bench/ module compiles against them. They go when it stops naming them.
type EvictionPolicy uint8

// EvictLRU is the only EvictionPolicy.
const EvictLRU EvictionPolicy = 0

const (
	// segmentSize is the standard slab arena size; entries larger than a
	// segment get a dedicated arena of their exact size.
	segmentSize = 64 << 10

	// entryHdrLen is the fixed entry header: keyLen u32, valLen u32,
	// valCap u32, state u32 (the CLOCK bit Get sets in place), auxLen u32.
	// Everything is fixed-width so in-place mutation never moves a byte
	// after it. The key, valCap payload bytes and auxLen aux bytes follow,
	// then padding to the next 8-byte boundary.
	entryHdrLen = 20

	offKeyLen = 0
	offValLen = 4
	offValCap = 8
	offState  = 12
	offAuxLen = 16

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

// readerStripe is one processor's line of a shard's lock and books: a Get
// read-locks and books on its own processor's stripe, so a hit writes no
// line another core writes; a writer takes every stripe (lock).
type readerStripe struct {
	mu sync.RWMutex
	// hits and misses count Get outcomes, under the stripe's shared lock.
	hits   atomic.Uint64
	misses atomic.Uint64
	_      [64 - 40]byte
}

// cacheShard holds nothing a Get writes; the padding keeps its lines,
// written under the exclusive lock, off its neighbours'.
type cacheShard struct {
	stripes []readerStripe // GOMAXPROCS rounded up to a power of two, <= 16

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

	evicted uint64
	_       [64 - 152%64]byte
}

// A shard is whole cache lines, a reader stripe exactly one, and the state
// word sits 4-aligned in every 8-aligned entry (else these fail to build).
var _ [0]struct{} = [unsafe.Sizeof(cacheShard{}) % 64]struct{}{}
var _ [0]struct{} = [unsafe.Sizeof(readerStripe{}) - 64]struct{}{}
var _ [0]struct{} = [offState % 4]struct{}{}

// lock takes every reader stripe exclusively, in index order: what every
// writer holds, and what shuts out every Get.
func (s *cacheShard) lock() {
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
}

func (s *cacheShard) unlock() {
	for i := range s.stripes {
		s.stripes[i].mu.Unlock()
	}
}

// procID is the id of the processor (the runtime's P) the caller runs on:
// it picks the stripes a hit writes. Only locality rests on it. procPin is
// what sync.Pool is built on; the runtime keeps it for linkname users.
func procID() int {
	p := procPin()
	procUnpin()
	return p
}

//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// stateWord addresses the one word of the entry at b that Get mutates:
// holders of the shared lock go through it with sync/atomic, holders of
// the exclusive lock may use plain loads and stores.
func stateWord(b []byte) *uint32 { return (*uint32)(unsafe.Pointer(&b[offState])) }

// CacheStats aggregates shard counters. JSON tags let servers expose the
// stats directly.
type CacheStats struct {
	// Entries is the number of live entries.
	Entries int `json:"entries"`
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
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
// maxCacheShards). The ttl argument is ignored: entries never expire, and
// the argument stays only because the bench/ module compiles against it,
// like NewCacheSized's policy argument (see EvictionPolicy).
func NewCache(shards int, ttl time.Duration) *Cache {
	return NewCacheSized(shards, ttl, 0, EvictLRU)
}

// NewCacheSized is NewCache with a byte budget: maxBytes bounds the total
// slab footprint (approximately — the budget is split per shard and
// enforced at segment granularity), and CLOCK chooses which entries
// survive reclamation. maxBytes <= 0 means unbounded (segments are
// compacted when dead bytes accumulate, never evicted). The ttl and policy
// arguments are ignored (see NewCache and EvictionPolicy).
func NewCacheSized(shards int, _ time.Duration, maxBytes int64, _ EvictionPolicy) *Cache {
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
	}
	k := 1 << bits.Len(uint(min(runtime.GOMAXPROCS(0), 16)-1))
	// A power-of-two size, aligned to it: no two stripes share a line.
	stripes := make([]readerStripe, n*k)
	for i := range c.shards {
		c.shards[i].stripes = stripes[i*k : (i+1)*k : (i+1)*k]
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
// CLOCK spares (all of them in unbounded/compaction mode; none under
// force) and tombstoning the rest. The segment's buffer is released to
// the GC untouched, so previously returned aliases into it stay valid.
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
		if !force && (c.maxShardBytes == 0 || st&stateAccessed != 0) {
			dst := s.head(c, size, false)
			noff := dst.used
			copy(dst.buf[noff:noff+size], seg.buf[off:off+size])
			binary.LittleEndian.PutUint32(dst.buf[noff+offState:], st&^stateAccessed)
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
func (s *cacheShard) append(c *Cache, h uint64, key string, val []byte) []byte {
	vc := valCapFor(len(val))
	size := entrySize(len(key), vc, 0)
	seg := s.head(c, size, true)
	off := seg.used
	b := seg.buf[off : off+size]
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

// Get returns the cached payload for key, setting the entry's CLOCK bit
// in place if a sweep has cleared it. The returned slice aliases slab
// memory — see the Cache aliasing contract.
func (c *Cache) Get(key string) ([]byte, bool) {
	val, _, ok := c.GetWithAux(key)
	return val, ok
}

// GetWithAux is Get that also returns the entry's aux region (nil when
// none is attached) from the same lookup, under its processor's stripe: a
// hit writes only atomics.
func (c *Cache) GetWithAux(key string) (val, aux []byte, ok bool) {
	return c.getWithAux(key, procID())
}

// getWithAux is GetWithAux on reader stripe p (masked to the shard's).
func (c *Cache) getWithAux(key string, p int) (val, aux []byte, ok bool) {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	r := &s.stripes[p&(len(s.stripes)-1)]
	r.mu.RLock()
	slot := s.find(h, key)
	if slot < 0 {
		r.misses.Add(1)
		r.mu.RUnlock()
		return nil, nil, false
	}
	seg, off := s.at(s.idxRef[slot])
	b := seg.buf[off:]
	if st := stateWord(b); atomic.LoadUint32(st)&stateAccessed == 0 {
		atomic.OrUint32(st, stateAccessed)
	}
	r.hits.Add(1)
	kl, vc, al := entryLens(b)
	vl := int(binary.LittleEndian.Uint32(b[offValLen:]))
	lo := off + entryHdrLen + kl
	val = seg.buf[lo : lo+vl : lo+vl]
	if al > 0 {
		aux = seg.buf[lo+vc : lo+vc+al : lo+vc+al]
	}
	r.mu.RUnlock()
	return val, aux, true
}

// AttachAux stores aux beside key's payload, provided the entry is live,
// has no aux yet, and its payload is still val — the very slab bytes a Get
// returned, so bytes derived from an entry that has since been replaced
// or moved are never attached to its successor. The entry is re-appended
// with its CLOCK bit preserved and the old copy retired, never written in
// place. It reports whether aux was attached;
// it counts as neither a hit nor a miss.
func (c *Cache) AttachAux(key string, val, aux []byte) bool {
	if len(val) == 0 || len(aux) == 0 {
		return false
	}
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	vc := valCapFor(len(val))
	size := entrySize(len(key), vc, len(aux))
	s.lock()
	defer s.unlock()
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

// Set stores a payload under key. When the key's live entry has capacity
// for the new payload, the entry is overwritten in place (CLOCK bit
// cleared, no index churn, no allocation); otherwise the old entry is
// tombstoned and a fresh one appended.
func (c *Cache) Set(key string, val []byte) { c.store(key, val) }

// store is Set returning the stored payload's slab bytes, under the
// aliasing contract a Get's have.
func (c *Cache) store(key string, val []byte) []byte {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.lock()
	defer s.unlock()
	if slot := s.find(h, key); slot >= 0 {
		seg, off := s.at(s.idxRef[slot])
		b := seg.buf[off:]
		if kl, vc, al := entryLens(b); len(val) <= vc {
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
	return s.append(c, h, key, val)
}

// Delete removes key. It reports whether an entry was present.
func (c *Cache) Delete(key string) bool {
	h := fnv1a(key)
	s := &c.shards[h&c.mask]
	s.lock()
	defer s.unlock()
	slot := s.find(h, key)
	if slot < 0 {
		return false
	}
	s.killSlot(slot)
	return true
}

// KV is one cache entry's key and payload, as returned by Dump.
type KV struct {
	Key string
	Val []byte
}

// Dump copies every live entry's key and payload (shard by shard, each
// under one reader stripe, which shuts out its writers — a
// consistent-enough point-in-time view for snapshotting; entries are
// sorted by key so dumps are deterministic). The returned values are
// copies and safe to retain.
func (c *Cache) Dump() []KV {
	var out []KV
	for i := range c.shards {
		s := &c.shards[i]
		s.stripes[0].mu.RLock()
		for slot, v := range s.idxHash {
			if v == idxEmpty || v == idxTombstone {
				continue
			}
			seg, off := s.at(s.idxRef[slot])
			b := seg.buf[off:]
			kl := int(binary.LittleEndian.Uint32(b[offKeyLen:]))
			vl := int(binary.LittleEndian.Uint32(b[offValLen:]))
			val := make([]byte, vl)
			copy(val, b[entryHdrLen+kl:entryHdrLen+kl+vl])
			out = append(out, KV{Key: string(b[entryHdrLen : entryHdrLen+kl]), Val: val})
		}
		s.stripes[0].mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Clear drops every entry and arena (counters are preserved).
func (c *Cache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		s.segBase += uint64(len(s.segs))
		s.segs = nil
		s.idxHash, s.idxRef, s.idxMask = nil, nil, 0
		s.idxLive, s.idxUsed = 0, 0
		s.bytes, s.dead = 0, 0
		s.unlock()
	}
}

// Stats aggregates counters across shards and their reader stripes, each
// shard under one stripe, which shuts out its writers.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{Shards: len(c.shards)}
	for i := range c.shards {
		s := &c.shards[i]
		s.stripes[0].mu.RLock()
		st.Entries += s.idxLive
		for j := range s.stripes {
			st.Hits += s.stripes[j].hits.Load()
			st.Misses += s.stripes[j].misses.Load()
		}
		st.Evicted += s.evicted
		st.Bytes += s.bytes
		s.stripes[0].mu.RUnlock()
	}
	return st
}
