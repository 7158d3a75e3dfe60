package serve

// Cache and engine benchmarks. Every one reports allocations: the slab's
// whole claim is near-zero allocs on the warm path. `make bench-engine`
// runs the three that carry the core-scaling story (figures in DESIGN §6).
// The map-of-varint-blobs cache the slab replaced used to run beside it
// here; the last comparison is recorded in CHANGES PR 9.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

const benchEntries = 4096

func benchKeys() []string {
	keys := make([]string, benchEntries)
	for i := range keys {
		keys[i] = fmt.Sprintf("E7?bces=%d&n=%d", i%512, i)
	}
	return keys
}

func benchVal() []byte {
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte(i)
	}
	return val
}

// warmBenchCache is a 16-shard slab holding benchKeys.
func warmBenchCache() (*Cache, []string) {
	c := NewCache(16, 0)
	keys := benchKeys()
	val := benchVal()
	for _, k := range keys {
		c.Set(k, val)
	}
	return c, keys
}

// Warm reads across shards — the serving tier's dominant operation,
// alloc-free — from every processor at once: the contention profile a
// loaded engine sees. Run with -cpu 1,2,4 for the scaling curve.
func BenchmarkCacheGetHotParallel(b *testing.B) {
	c, keys := warmBenchCache()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(keys[i%benchEntries])
			i++
		}
	})
}

// Fresh inserts (distinct keys) — the cold-path write cost.
func BenchmarkCacheSetFresh(b *testing.B) {
	c := NewCache(16, 0)
	val := benchVal()
	keys := make([]string, 0, 1<<16)
	for i := 0; i < 1<<16; i++ {
		keys = append(keys, fmt.Sprintf("E7?bces=%d&n=%d", i%512, i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set(keys[i%len(keys)], val)
	}
}

// Same-key overwrites — the slab's in-place update (fits-in-capacity).
func BenchmarkCacheSetOverwrite(b *testing.B) {
	c := NewCache(16, 0)
	val := benchVal()
	c.Set("E7?bces=256", val)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Set("E7?bces=256", val)
	}
}

// benchHotIDs is the engine benchmarks' 16-key hot set.
var benchHotIDs = func() []string {
	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("X%d", i)
	}
	return ids
}()

// bootBenchEngine is what a serving process does before its first
// request: build the engine and fill the hot set.
func bootBenchEngine(tb testing.TB) *Engine {
	e := NewEngine(Config{Shards: 16, Workers: 2, Runner: func(id string) (core.Result, error) {
		return fakeResult(id), nil
	}})
	for _, id := range benchHotIDs {
		if _, err := e.ServeEncoded(context.Background(), id, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// The engine's warm path end to end, both materializations: ServeEncoded
// (the zero-copy path the HTTP layer and the load generator drive), every
// goroutine of a RunParallel walking the hot set from its own offset — run
// with -cpu 1,2,4 for the scaling curve — and ServeWith (the decode path
// in-process callers get). The gap between the two is the decode cost.
func BenchmarkEngineWarmHit(b *testing.B) {
	e := bootBenchEngine(b)
	defer e.Close()
	ctx := context.Background()
	b.Run("encoded", func(b *testing.B) {
		var starts atomic.Int64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := int(starts.Add(5)); pb.Next(); i++ {
				rr, err := e.ServeEncoded(ctx, benchHotIDs[i%len(benchHotIDs)], nil)
				if err != nil || !rr.CacheHit {
					b.Errorf("warm ServeEncoded: hit=%v err=%v", rr.CacheHit, err)
					return
				}
			}
		})
	})
	b.Run("decoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := e.ServeWith(ctx, "X1", nil)
			if err != nil || !r.CacheHit {
				b.Fatalf("warm ServeWith: hit=%v err=%v", r.CacheHit, err)
			}
		}
	})
}

// Boot and fill — NewEngine, sixteen cold requests, Close: the guard on what
// the latency instrument and the slab cost before the first hit (setup_s).
func BenchmarkEngineBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bootBenchEngine(b).Close()
	}
}
