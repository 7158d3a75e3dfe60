package serve

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

// The shard-rounding loop used to spin forever for adversarial counts:
// rounding 1<<62+1 up overflows n to negative/zero and `n <<= 1` never
// reaches the target. The clamp bounds the loop before it starts.
func TestShardCountClampsAdversarialValues(t *testing.T) {
	cases := []struct {
		in   int
		want int
	}{
		{maxCacheShards, maxCacheShards},
		{maxCacheShards + 1, maxCacheShards},
		{math.MaxInt, maxCacheShards},
		{math.MaxInt/2 + 2, maxCacheShards}, // > any power of two representable
		{1 << 62, maxCacheShards},
	}
	for _, tc := range cases {
		done := make(chan *Cache, 1)
		go func() { done <- NewCache(tc.in, 0) }()
		select {
		case c := <-done:
			if got := c.Stats().Shards; got != tc.want {
				t.Errorf("NewCache(%d): %d shards, want %d", tc.in, got, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("NewCache(%d) hung (rounding overflow)", tc.in)
		}
	}
}

// A Set whose payload fits the entry's capacity must overwrite in place:
// same slab footprint, CLOCK bit cleared, no new bytes consumed.
func TestSlabInPlaceUpdate(t *testing.T) {
	c := NewCache(1, 0)
	c.Set("k", []byte("12345678"))
	for i := 0; i < 3; i++ {
		c.Get("k")
	}
	before := c.Stats().Bytes
	c.Set("k", []byte("1234")) // shorter: fits capacity
	if got := c.Stats().Bytes; got != before {
		t.Fatalf("in-place update changed slab bytes: %d -> %d", before, got)
	}
	if _, state := entryWords(t, c, "k"); state != stateLive {
		t.Fatalf("in-place update left state %b, want live only", state)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "1234" {
		t.Fatalf("Get after in-place update = %q, %v", v, ok)
	}
	// Growing past capacity relocates but must still round-trip.
	big := make([]byte, 100)
	for i := range big {
		big[i] = byte(i)
	}
	c.Set("k", big)
	v, ok := c.Get("k")
	if !ok || len(v) != len(big) || v[99] != 99 {
		t.Fatalf("Get after relocating update = %d bytes, %v", len(v), ok)
	}
	if got := c.Stats().Entries; got != 1 {
		t.Fatalf("entries = %d, want 1 after overwrites", got)
	}
}

// Payloads larger than a standard segment get dedicated arenas and
// round-trip intact.
func TestSlabOversizeEntries(t *testing.T) {
	c := NewCache(1, 0)
	big := make([]byte, 3*segmentSize)
	for i := range big {
		big[i] = byte(i * 31)
	}
	c.Set("big", big)
	c.Set("small", []byte("s"))
	v, ok := c.Get("big")
	if !ok || len(v) != len(big) {
		t.Fatalf("oversize Get = %d bytes, %v", len(v), ok)
	}
	for i := 0; i < len(big); i += 4097 {
		if v[i] != big[i] {
			t.Fatalf("oversize payload corrupt at %d", i)
		}
	}
	if v, ok := c.Get("small"); !ok || string(v) != "s" {
		t.Fatalf("small Get alongside oversize = %q, %v", v, ok)
	}
}

// A bounded cache must stay within (about) its byte budget under
// sustained insertion, evicting old entries rather than failing, and
// every surviving entry must still read back correctly.
func TestSlabBoundedEviction(t *testing.T) {
	t.Run("lru", func(t *testing.T) {
		const budget = 4 * segmentSize
		c := NewCacheSized(1, 0, budget, EvictLRU)
		val := make([]byte, 1024)
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%05d", i)
			copy(val, key)
			c.Set(key, val)
		}
		st := c.Stats()
		if st.Evicted == 0 {
			t.Fatalf("no evictions after writing %d x 1KiB into %d budget", 2000, budget)
		}
		if st.Bytes > budget+segmentSize {
			t.Fatalf("slab bytes %d exceed budget %d by more than one segment", st.Bytes, budget)
		}
		found := 0
		for i := 0; i < 2000; i++ {
			key := fmt.Sprintf("key-%05d", i)
			if v, ok := c.Get(key); ok {
				found++
				if string(v[:len(key)]) != key {
					t.Fatalf("surviving entry %s corrupt: %q", key, v[:len(key)])
				}
			}
		}
		if found == 0 || found == 2000 {
			t.Fatalf("survivors = %d, want some but not all", found)
		}
	})
}

// Under LRU, a hot entry that keeps getting touched must outlive cold
// neighbors inserted at the same time.
func TestSlabLRUKeepsHotEntry(t *testing.T) {
	c := NewCacheSized(1, 0, 2*segmentSize, EvictLRU)
	val := make([]byte, 512)
	c.Set("hot", val)
	for i := 0; i < 5000; i++ {
		c.Set(fmt.Sprintf("cold-%05d", i), val)
		c.Get("hot") // refresh the CLOCK bit every round
	}
	if _, ok := c.Get("hot"); !ok {
		t.Fatalf("hot entry evicted despite constant access")
	}
}

// An unbounded cache must compact dead bytes (from deletes and
// relocating overwrites) instead of growing forever.
func TestSlabUnboundedCompaction(t *testing.T) {
	c := NewCache(1, 0)
	val := make([]byte, 1024)
	// Churn: insert then delete, repeatedly. Live set stays tiny; slab
	// bytes must stay bounded (compaction reclaims dead segments).
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("churn-%05d", i)
		c.Set(key, val)
		if i >= 8 {
			c.Delete(fmt.Sprintf("churn-%05d", i-8))
		}
	}
	st := c.Stats()
	if st.Evicted != 0 {
		t.Fatalf("unbounded cache evicted %d live entries", st.Evicted)
	}
	// 3000 KiB written; the live tail is 8 KiB. Anything under a dozen
	// segments proves compaction ran.
	if st.Bytes > 12*segmentSize {
		t.Fatalf("slab bytes %d: compaction not reclaiming dead segments", st.Bytes)
	}
	for i := 2993; i < 3000; i++ {
		if _, ok := c.Get(fmt.Sprintf("churn-%05d", i)); !ok {
			t.Fatalf("live tail entry churn-%05d lost in compaction", i)
		}
	}
}

// Aliases returned by Get before a reclamation must stay readable after
// it (reclaimed segments are dropped to the GC, never reused).
func TestSlabAliasSurvivesReclamation(t *testing.T) {
	c := NewCacheSized(1, 0, 2*segmentSize, EvictLRU)
	c.Set("pinned", []byte("stable-bytes"))
	alias, ok := c.Get("pinned")
	if !ok {
		t.Fatal("pinned entry missing")
	}
	val := make([]byte, 1024)
	for i := 0; i < 5000; i++ {
		c.Set(fmt.Sprintf("filler-%05d", i), val)
	}
	if string(alias) != "stable-bytes" {
		t.Fatalf("alias corrupted after reclamation: %q", alias)
	}
}

// Dump / Set round-trip across cache generations — the snapshot path the
// engine's tier-2 warm start depends on.
func TestSlabDumpRoundTripIntoFreshCache(t *testing.T) {
	src := NewCache(4, 0)
	for i := 0; i < 100; i++ {
		src.Set(fmt.Sprintf("snap-%03d", i), []byte(fmt.Sprintf("val-%03d", i)))
	}
	dump := src.Dump()
	if len(dump) != 100 {
		t.Fatalf("dump = %d entries, want 100", len(dump))
	}
	dst := NewCache(4, 0)
	for _, kv := range dump {
		dst.Set(kv.Key, kv.Val)
	}
	redump := dst.Dump()
	if len(redump) != 100 {
		t.Fatalf("re-dump = %d entries, want 100", len(redump))
	}
	for i, kv := range redump {
		if kv.Key != dump[i].Key || string(kv.Val) != string(dump[i].Val) {
			t.Fatalf("entry %d drifted across round-trip: %+v vs %+v", i, kv, dump[i])
		}
	}
}

// Clear must release every arena and still serve fresh inserts.
func TestSlabClearReleasesArenas(t *testing.T) {
	c := NewCache(2, 0)
	val := make([]byte, 1024)
	for i := 0; i < 500; i++ {
		c.Set(fmt.Sprintf("k-%03d", i), val)
	}
	if c.Stats().Bytes == 0 {
		t.Fatal("no slab bytes before Clear")
	}
	c.Clear()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after Clear: entries=%d bytes=%d, want 0/0", st.Entries, st.Bytes)
	}
	c.Set("fresh", []byte("v"))
	if v, ok := c.Get("fresh"); !ok || string(v) != "v" {
		t.Fatalf("Get after Clear = %q, %v", v, ok)
	}
}

// pattern is n bytes that could only be tag's: the tag repeated.
func pattern(tag string, n int) []byte {
	return bytes.Repeat([]byte(tag), n/len(tag)+1)[:n]
}

// Get runs under the shard's shared lock and writes only atomics, so its
// books must stay exact with readers racing each other and the writers:
// eight readers hammer a Zipf hot set (and now and then a churned key)
// while writers Set — in place and relocating — Delete, read Stats, and
// AttachAux onto the hot entries, forcing compaction or eviction to move
// live entries under the readers. Afterwards Stats().Hits and .Misses are
// the goroutines' own tallies, each hot entry's header still gives the
// length of the payload it was Set with and that payload follows it (the
// header moved with the bytes), and no alias ever showed another key's
// bytes (the hot keys are never Set again, so reading their aliases is
// within the aliasing contract). Run under -race in CI.
func TestSlabReadersKeepExactBooksUnderWriters(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
	}{{"unbounded", 0}, {"bounded-lru", 512 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			const readers, writers, lookups, nHot = 8, 2, 20000, 16
			c := NewCacheSized(4, 0, tc.maxBytes, EvictLRU)
			hot := make([]string, nHot)
			for i := range hot {
				hot[i] = fmt.Sprintf("hot/%02d", i)
				c.Set(hot[i], pattern(hot[i], 200+17*i))
			}
			type tally struct{ hits, misses uint64 }
			tallies := make([]tally, readers+writers)
			// lookup is one tallied Get of hot key i, its bytes checked.
			lookup := func(tl *tally, i int) (val []byte, ok bool) {
				val, aux, ok := c.GetWithAux(hot[i])
				if !ok {
					tl.misses++
					return nil, false
				}
				tl.hits++
				if !bytes.Equal(val, pattern(hot[i], 200+17*i)) ||
					(aux != nil && !bytes.Equal(aux, pattern("aux:"+hot[i], 64))) {
					t.Errorf("Get(%s) returned %q with aux %q", hot[i], val, aux)
				}
				return val, true
			}
			var readersDone, writersDone sync.WaitGroup
			var stop atomic.Bool
			for r := 0; r < readers; r++ {
				readersDone.Add(1)
				go func(tl *tally, seed uint64) {
					defer readersDone.Done()
					rng, zipf := stats.NewRNG(seed), stats.NewZipf(nHot, 1.1)
					for n := 0; n < lookups; n++ {
						if n%8 != 7 {
							lookup(tl, zipf.Rank(rng)-1)
						} else if _, ok := c.Get(fmt.Sprintf("churn/%d/%d", rng.Intn(8), rng.Intn(64))); ok {
							tl.hits++
						} else {
							tl.misses++
						}
					}
				}(&tallies[r], uint64(r+1))
			}
			for w := 0; w < writers; w++ {
				writersDone.Add(1)
				go func(tl *tally, seed uint64) {
					defer writersDone.Done()
					for rng := stats.NewRNG(seed); !stop.Load(); {
						key := fmt.Sprintf("churn/%d/%d", rng.Intn(8), rng.Intn(64))
						switch op := rng.Intn(16); {
						case op < 10:
							c.Set(key, pattern(key, 100+rng.Intn(3000)))
						case op < 13:
							c.Delete(key)
						case op < 14:
							c.Stats()
						default:
							i := rng.Intn(nHot)
							if val, ok := lookup(tl, i); ok {
								c.AttachAux(hot[i], val, pattern("aux:"+hot[i], 64))
							}
						}
					}
				}(&tallies[readers+w], uint64(100+w))
			}
			readersDone.Wait()
			stop.Store(true)
			writersDone.Wait()

			var want tally
			for i := range tallies {
				want.hits += tallies[i].hits
				want.misses += tallies[i].misses
			}
			st := c.Stats()
			if st.Hits != want.hits || st.Misses != want.misses || want.hits == 0 || want.misses == 0 {
				t.Errorf("Stats: %d hits %d misses; the goroutines counted %d hits and %d misses (each must be > 0)",
					st.Hits, st.Misses, want.hits, want.misses)
			}
			if tc.maxBytes > 0 {
				if st.Evicted == 0 {
					t.Errorf("a %d-byte cache evicted nothing", tc.maxBytes)
				}
				return
			}
			// Unbounded: compaction and AttachAux carry the header along.
			for i, k := range hot {
				if val, _ := entryWords(t, c, k); !bytes.Equal(val, pattern(k, 200+17*i)) {
					t.Errorf("%s: after moves the header gives %d payload bytes, not the %d-byte pattern it was Set with",
						k, len(val), 200+17*i)
				}
			}
		})
	}
}

// Each shard has one reader stripe per processor (GOMAXPROCS rounded up to
// a power of two, at most 16); cache.go's compile-time checks hold
// a stripe at exactly one cache line. A writer's lock holds every stripe,
// so no Get can start on any processor, and the books are the sum over
// stripes: driven by hand on every stripe index, and past them (a
// processor id wraps onto the stripes), each stripe counts exactly the
// Gets made on it.
func TestSlabReaderStripes(t *testing.T) {
	c := NewCache(4, 0)
	k := 1
	for k < runtime.GOMAXPROCS(0) && k < 16 {
		k <<= 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		if len(s.stripes) != k {
			t.Fatalf("shard %d has %d reader stripes, want %d", i, len(s.stripes), k)
		}
		s.lock()
		for j := range s.stripes {
			if s.stripes[j].mu.TryRLock() {
				t.Errorf("shard %d: a reader took stripe %d under the writer's lock", i, j)
				s.stripes[j].mu.RUnlock()
			}
		}
		s.unlock()
		for j := range s.stripes {
			if !s.stripes[j].mu.TryRLock() {
				t.Errorf("shard %d: stripe %d stayed locked after unlock", i, j)
				continue
			}
			s.stripes[j].mu.RUnlock()
		}
	}

	c.Set("k", []byte("v"))
	s := &c.shards[fnv1a("k")&c.mask]
	wantHits := make([]uint64, k)
	var hits, misses uint64
	for p := 0; p < 32; p++ {
		for n := 0; n <= p%3; n++ {
			if _, _, ok := c.getWithAux("k", p); !ok {
				t.Fatalf("stripe %d: Get(k) missed", p)
			}
			wantHits[p&(k-1)]++
			hits++
		}
		if _, _, ok := c.getWithAux("absent", p); ok {
			t.Fatalf("stripe %d: Get(absent) hit", p)
		}
		misses++
	}
	for j := range s.stripes {
		if got := s.stripes[j].hits.Load(); got != wantHits[j] {
			t.Errorf("stripe %d booked %d hits, want %d", j, got, wantHits[j])
		}
	}
	if st := c.Stats(); st.Hits != hits || st.Misses != misses {
		t.Errorf("Stats: %d hits %d misses, want %d and %d", st.Hits, st.Misses, hits, misses)
	}
}
