package serve

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestCacheSetGetRoundTrip(t *testing.T) {
	c := NewCache(8, 0)
	c.Set("k1", []byte("hello"))
	v, ok := c.Get("k1")
	if !ok || !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("Get k1: got (%q, %v)", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get absent: expected miss")
	}
	c.Set("k1", []byte("overwritten"))
	v, _ = c.Get("k1")
	if !bytes.Equal(v, []byte("overwritten")) {
		t.Fatalf("overwrite: got %q", v)
	}
	c.Set("empty", nil)
	v, ok = c.Get("empty")
	if !ok || len(v) != 0 {
		t.Fatalf("empty value: got (%q, %v)", v, ok)
	}
}

func TestCacheShardCountRoundsUp(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		c := NewCache(tc.ask, 0)
		if got := c.Stats().Shards; got != tc.want {
			t.Fatalf("NewCache(%d): got %d shards, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestCacheHitCounters(t *testing.T) {
	c := NewCache(4, 0)
	c.Set("k", []byte("v"))
	for i := 0; i < 5; i++ {
		c.Get("k")
	}
	c.Get("absent")
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 1 {
		t.Fatalf("stats: got hits=%d misses=%d, want 5 and 1", st.Hits, st.Misses)
	}
}

func TestCacheDeleteAndClear(t *testing.T) {
	c := NewCache(4, 0)
	for i := 0; i < 20; i++ {
		c.Set(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if st := c.Stats(); st.Entries != 20 {
		t.Fatalf("entries: got %d want 20", st.Entries)
	}
	if !c.Delete("k3") || c.Delete("k3") {
		t.Fatal("Delete should report presence exactly once")
	}
	c.Clear()
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries after Clear: got %d want 0", st.Entries)
	}
}

func TestCacheKeysSpreadAcrossShards(t *testing.T) {
	c := NewCache(16, 0)
	touched := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		touched[fnv1a(fmt.Sprintf("key-%d", i))&c.mask] = true
	}
	if len(touched) < 16 {
		t.Fatalf("1000 keys hit only %d/16 shards", len(touched))
	}
}

// TestCacheStatsConservedUnderConcurrency drives concurrent Gets (over a
// mix of present and absent keys, interleaved with Sets) and asserts the
// aggregated counters conserve the fundamental identity: every Get is
// exactly one hit or one miss, so Stats().Hits + Stats().Misses equals the
// number of Get calls issued — no outcome double-counted or lost across
// shards.
func TestCacheStatsConservedUnderConcurrency(t *testing.T) {
	c := NewCache(8, 0)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("k%d", (w*perWorker+i)%64)
				switch i % 4 {
				case 0:
					c.Set(key, []byte("v"))
				default:
					c.Get(key)
				}
			}
		}()
	}
	wg.Wait()
	gets := uint64(workers * perWorker * 3 / 4)
	st := c.Stats()
	if st.Hits+st.Misses != gets {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d gets",
			st.Hits, st.Misses, st.Hits+st.Misses, gets)
	}
	if st.Entries == 0 || st.Entries > 64 {
		t.Fatalf("entries = %d, want (0, 64]", st.Entries)
	}
	if st.Shards != 8 {
		t.Fatalf("shards = %d, want 8", st.Shards)
	}
}
