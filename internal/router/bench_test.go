package router

// Routed hot-path benchmarks: the cluster-scatter shape (a warmed grid
// scattered over 3 in-process replicas) driven straight at
// Router.ServeEncoded — the load generator's in-process path. Allocs
// are reported because the batched data plane's claim is that routing
// adds frames, not per-request garbage.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func BenchmarkServeEncodedRoutedWarm(b *testing.B) {
	engines := make([]*serve.Engine, 3)
	backends := make([]Backend, 3)
	for i := range engines {
		engines[i] = serve.NewEngine(serve.Config{Shards: 8, Workers: 2})
		defer engines[i].Close()
		backends[i] = NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i))
	}
	r, err := New(backends, Config{})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := sweep.ParseSpec("E7", []string{
		"f=0.9:0.97:0.01", "bces=16,32,64,128,256,512,1024,2048",
	})
	if err != nil {
		b.Fatal(err)
	}
	grid := sp.Grid()
	for _, p := range grid {
		if _, err := serveDecoded(context.Background(), r, "E7", p); err != nil {
			b.Fatal(err)
		}
	}
	params := make([]core.Params, len(grid))
	copy(params, grid)

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			p := params[int(next.Add(1))%len(params)]
			if _, err := r.ServeEncoded(ctx, "E7", p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The hop, two ways (ROADMAP item 3): the same one-entry warm exchange
// against one engine over (i) the upgraded frame stream, (ii) the stream
// with eight exchanges in flight. Every reply is decoded and checked.
// Reported per exchange: ns (wall), cpu-us (getrusage, whole process —
// client and replica), allocs. DESIGN §7 records the readings, next to
// the two ways they were first taken against, whose front-end clients
// have since gone: net/http GET format=bin and POST /v1/batch with a
// frame of one.
func benchHop(b *testing.B, inflight int, exchange func(hb *HTTPBackend) error) {
	eng := serve.NewEngine(serve.Config{Shards: 8, Workers: 2})
	defer eng.Close()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	hb := NewHTTPBackend(srv.URL)
	for i := 0; i < 2*hedgeWarmup; i++ { // fill the cache, open the connection
		if err := exchange(hb); err != nil {
			b.Fatal(err)
		}
	}
	cpu := func() time.Duration {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b.ReportAllocs()
	b.ResetTimer()
	c0 := cpu()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := exchange(hb); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(cpu()-c0)/1e3/float64(b.N), "cpu-us/op")
}

var hopCtx = admit.WithClass(context.Background(), admit.Interactive)

func hopBatchOne(hb *HTTPBackend) error {
	outs, err := hb.DoBatch(hopCtx, []serve.BatchItem{{ID: "E7", Class: admit.Interactive}})
	if err != nil {
		return err
	}
	if outs[0].Err != nil || outs[0].RawResponse.Key != "E7" {
		return fmt.Errorf("bad outcome %+v", outs[0])
	}
	res, err := outs[0].RawResponse.Result()
	if err == nil && res.Figure == nil {
		err = fmt.Errorf("bad payload %+v", res)
	}
	return err
}

func BenchmarkHopStream(b *testing.B)           { benchHop(b, 1, hopBatchOne) }
func BenchmarkHopStreamPipelined8(b *testing.B) { benchHop(b, 8, hopBatchOne) }
