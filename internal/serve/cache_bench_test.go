package serve

// Cache and engine benchmarks. Every one reports allocations: the slab's
// whole claim is near-zero allocs on the warm path. `make bench-engine`
// runs the three that carry the core-scaling story (figures in DESIGN §6).
// The map-of-varint-blobs cache the slab replaced used to run beside it
// here; the last comparison is recorded in CHANGES PR 9.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/stats"
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
	e := NewEngine(Config{Shards: 16, Workers: 2, RunnerWith: byID(func(id string) (core.Result, error) {
		return fakeResult(id), nil
	})})
	for _, id := range benchHotIDs {
		if _, err := e.ServeEncoded(context.Background(), id, nil); err != nil {
			tb.Fatal(err)
		}
	}
	return e
}

// benchMixSet is the repository benchmark's engine-warm hot set, hottest
// first: ten registry defaults and six parameterized points, so a hit
// names its pair through IdentOf as a client's does.
var benchMixSet = []struct {
	id string
	p  core.Params
}{
	{"E7", nil}, {"E5", nil}, {"E1", nil}, {"E2", nil}, {"E4", nil},
	{"E10", nil}, {"E14", nil}, {"E17", nil}, {"E22", nil}, {"T1", nil},
	{"E7", core.Params{"f": 0.9}},
	{"E7", core.Params{"bces": 1024}},
	{"E7", core.Params{"f": 0.99, "bces": 64}},
	{"E5", core.Params{"tile": 1024}},
	{"E5", core.Params{"operands": 6}},
	{"E1", core.Params{"gens": 12}},
}

// The engine's warm path end to end, both materializations: ServeEncoded
// (the zero-copy path the HTTP layer and the load generator drive), every
// goroutine of a RunParallel walking the hot set from its own offset — run
// with -cpu 1,2,4 for the scaling curve — and ServeWith (the decode path
// in-process callers get). The gap between the two is the decode cost.
// mix is the repository benchmark's engine-warm in-tree: its hot set on
// the real registry, through a default engine, each goroutine on its own
// pre-drawn Zipf(1.1) sequence; tenant is mix with Config.Tenants set and
// one tenant on every request.
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
	b.Run("mix", func(b *testing.B) { benchWarmMix(ctx, b, Config{}) })
	b.Run("tenant", func(b *testing.B) {
		benchWarmMix(admit.WithTenant(ctx, "tA"), b, Config{Tenants: []string{"tA"}})
	})
}

// benchWarmMix serves the engine-warm hot set through an engine built from
// cfg, every request under ctx (tenant: the same mix with one tenant on
// every request).
func benchWarmMix(ctx context.Context, b *testing.B, cfg Config) {
	e := NewEngine(cfg)
	defer e.Close()
	for _, v := range benchMixSet {
		if _, err := e.ServeEncoded(ctx, v.id, v.p); err != nil {
			b.Fatal(err)
		}
	}
	const drawLen = 1 << 12
	draws := make([][]uint8, runtime.GOMAXPROCS(0))
	z := stats.NewZipf(len(benchMixSet), 1.1)
	for g := range draws {
		rng := stats.NewRNG(uint64(g + 1))
		draws[g] = make([]uint8, drawLen)
		for i := range draws[g] {
			draws[g][i] = uint8(z.Rank(rng) - 1)
		}
	}
	var clients atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		d := draws[int(clients.Add(1)-1)%len(draws)]
		for i := 0; pb.Next(); i++ {
			v := &benchMixSet[d[i%drawLen]]
			if rr, err := e.ServeEncoded(ctx, v.id, v.p); err != nil || !rr.CacheHit {
				b.Errorf("warm ServeEncoded(%s): hit=%v err=%v", v.id, rr.CacheHit, err)
				return
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

// coldWave returns n E7 points no earlier call asked for: 8 values of bces
// under an f that moves by 1e-7 per point-group, as the repository
// benchmark's sweep-cold grids do.
func coldWave(items []BatchItem, n int, fresh *int) []BatchItem {
	items = items[:0]
	for i := 0; i < n; i++ {
		*fresh++
		items = append(items, BatchItem{ID: "E7", Params: core.Params{
			"f": 0.55 + float64(*fresh/8)*1e-7, "bces": float64(16 + 500*(*fresh%8))}})
	}
	return items
}

// What dispatch costs a cold point, and its floor: BenchmarkColdWave serves
// waves of fresh E7 points through ServeEncodedBatchInto into a 4 MiB cache
// (resolve, miss pass, singleflight, admission, run, Encode, Set, books);
// BenchmarkColdFloor does the same points' RunWith + Encode + Set on
// Workers() bare goroutines. ns/point of the first over the second is the
// dispatch ÷ floor ratio DESIGN §5 quotes.
func BenchmarkColdWave(b *testing.B) {
	for _, wave := range []int{16, 64} {
		b.Run(fmt.Sprint(wave), func(b *testing.B) {
			e := NewEngine(Config{CacheBytes: 4 << 20})
			defer e.Close()
			ctx := context.Background()
			var items []BatchItem
			fresh := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items = coldWave(items, wave, &fresh)
				for _, o := range e.ServeEncodedBatchInto(ctx, items, nil) {
					if o.Err != nil || o.RawResponse.CacheHit {
						b.Fatalf("cold point: hit=%v err=%v", o.RawResponse.CacheHit, o.Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wave), "ns/point")
		})
	}
}

func BenchmarkColdFloor(b *testing.B) {
	exp, _ := core.ByID("E7")
	for _, wave := range []int{16, 64} {
		b.Run(fmt.Sprint(wave), func(b *testing.B) {
			e := NewEngine(Config{CacheBytes: 4 << 20})
			defer e.Close()
			ctx := context.Background()
			var items []BatchItem
			fresh := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				items = coldWave(items, wave, &fresh)
				var next atomic.Int64
				var wg sync.WaitGroup
				for g := e.sched.Workers(); g > 0; g-- {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := next.Add(1) - 1; k < int64(wave); k = next.Add(1) - 1 {
							res, resolved, err := exp.RunWith(ctx, items[k].Params)
							if err != nil {
								b.Error(err)
								return
							}
							e.cache.Set(exp.CacheKey(resolved), res.Encode())
						}
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wave), "ns/point")
		})
	}
}
