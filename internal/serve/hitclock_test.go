package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
)

// A single request's warm hit reads the clock once in hitSample per
// processor (clockIn): the line's first arrival and every hitSample-th
// after it are timed, and so is any arrival while the line holds no
// measured hit; the hits between report the line's last measured latency,
// and book exactly that. A miss is always measured. Timed and held are
// told apart without a sleep: a measured latency lies inside the window the
// test reads around the call, and a latency planted on the line (an hour)
// is what a held hit reports.
func TestWarmHitClockSampling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const planted = time.Hour
	ctx := context.Background()
	newEngine := func() *Engine {
		return newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	}

	t.Run("sequence", func(t *testing.T) {
		e := newEngine()
		defer e.Close()
		if len(e.clocks) != 1 {
			t.Fatalf("%d clock lines at GOMAXPROCS 1, want 1", len(e.clocks))
		}
		hc := &e.clocks[0]
		cc := &e.classes[admit.Interactive]
		var hitSum time.Duration // what every hit reported
		// serve makes one arrival and checks its outcome and latency: held,
		// or (held < 0) measured inside the window read around the call.
		serve := func(id string, wantHit bool, held time.Duration) time.Duration {
			t.Helper()
			before := e.now()
			rr, err := e.ServeEncoded(ctx, id, nil)
			window := e.now() - before
			n := hc.n.Load()
			if err != nil || rr.CacheHit != wantHit {
				t.Fatalf("arrival %d (%s): hit=%v err=%v, want hit=%v", n, id, rr.CacheHit, err, wantHit)
			}
			if held < 0 && (rr.Latency <= 0 || rr.Latency > window) {
				t.Fatalf("arrival %d reported %v, want one measured within %v", n, rr.Latency, window)
			}
			if held >= 0 && rr.Latency != held {
				t.Fatalf("arrival %d reported %v, want the held %v", n, rr.Latency, held)
			}
			if wantHit {
				hitSum += rr.Latency
			}
			return rr.Latency
		}
		const measured = -1

		// Arrival 1 misses: it is measured and stores nothing on the line,
		// so arrival 2, a hit, is timed although it is not a 16th.
		serve("A", false, measured)
		if hc.last.Load() != 0 {
			t.Fatalf("a miss stored %v on the clock line", time.Duration(hc.last.Load()))
		}
		timed := serve("A", true, measured)
		if time.Duration(hc.last.Load()) != timed {
			t.Fatalf("arrival 2 measured %v, the line holds %v", timed, time.Duration(hc.last.Load()))
		}
		for n := 3; n <= hitSample; n++ {
			serve("A", true, timed)
		}
		// Arrivals 17 and 33 are timed over a planted value; the 15 after
		// each report exactly what it measured.
		for round := 1; round <= 2; round++ {
			hc.last.Store(int64(planted))
			timed := serve("A", true, measured)
			for n := 2; n <= hitSample; n++ {
				serve("A", true, timed)
			}
		}
		// Arrival 49 is timed; 50 is not, and its miss reads the clock
		// anyway: the cold histogram never receives a held value.
		serve("A", true, measured)
		hc.last.Store(int64(planted))
		serve("B", false, measured)
		serve("A", true, planted)
		if cold := cc.cold.Snapshot(); cold.Count != 2 || cold.Sum >= planted.Seconds() {
			t.Fatalf("cold histogram %d observations summing %gs, want 2 measured misses", cold.Count, cold.Sum)
		}
		hit := cc.hit.Snapshot()
		if hit.Count != 49 || time.Duration(math.Round(hit.Sum*1e9)) != hitSum {
			t.Fatalf("hit histogram %d observations summing %v, want 49 summing the reported %v",
				hit.Count, time.Duration(math.Round(hit.Sum*1e9)), hitSum)
		}
	})

	// A line's first arrival is timed even when it holds a value: here the
	// line is planted and the key warmed through the batch door, which ticks
	// no line.
	t.Run("first", func(t *testing.T) {
		e := newEngine()
		defer e.Close()
		if out := e.ServeEncodedBatchInto(ctx, []BatchItem{{ID: "A", Ident: IdentOf("A", nil)}}, nil); out[0].Err != nil {
			t.Fatal(out[0].Err)
		}
		if n := e.clocks[0].n.Load(); n != 0 {
			t.Fatalf("the batch door ticked the clock line %d times", n)
		}
		e.clocks[0].last.Store(int64(planted))
		before := e.now()
		r, err := e.ServeWith(ctx, "A", nil)
		if window := e.now() - before; err != nil || !r.CacheHit || r.Latency <= 0 || r.Latency > window {
			t.Fatalf("first arrival: hit=%v latency=%v err=%v, want a hit measured within %v",
				r.CacheHit, r.Latency, err, window)
		}
		if r2, err := e.ServeWith(ctx, "A", nil); err != nil || r2.Latency != r.Latency {
			t.Fatalf("second arrival reported %v (err %v), want the held %v", r2.Latency, err, r.Latency)
		}
	})

	// However the arrivals fall on the lines, every hit is one hit
	// observation: the hit count and the histogram count agree exactly.
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("books/GOMAXPROCS=%d", procs), func(t *testing.T) {
			runtime.GOMAXPROCS(procs)
			e := newEngine()
			defer e.Close()
			if _, err := e.ServeEncoded(ctx, "A", nil); err != nil {
				t.Fatal(err)
			}
			const goroutines, each = 4, 300
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						var hit bool
						var err error
						if i%2 == 0 {
							var rr RawResponse
							rr, err = e.ServeEncoded(ctx, "A", nil)
							hit = rr.CacheHit
						} else {
							var r Response
							r, err = e.ServeWith(ctx, "A", nil)
							hit = r.CacheHit
						}
						if err != nil || !hit {
							t.Errorf("warm hit: hit=%v err=%v", hit, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			const n = goroutines * each
			m := e.Metrics()
			if m.CacheHits != n || m.HitLatency.Count != n || m.Requests != n+1 {
				t.Fatalf("hits %d, hit observations %d, requests %d; want %d, %d, %d",
					m.CacheHits, m.HitLatency.Count, m.Requests, n, n, n+1)
			}
			if err := m.Classes["interactive"].Balance(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
