package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/report"
)

// fakeResult builds a small deterministic result for a given ID.
func fakeResult(id string) core.Result {
	t := report.NewTable("result for "+id, "metric", "value")
	t.AddRow("answer", "42")
	return core.Result{Table: t, Findings: []string{"finding for " + id}}
}

// serveDefault serves id at default parameters and the interactive class.
func serveDefault(e *Engine, id string) (Response, error) {
	return e.ServeWith(context.Background(), id, nil)
}

// byID adapts a runner of default-parameter experiments to
// Config.RunnerWith, ignoring params and ctx.
func byID(run func(id string) (core.Result, error)) func(context.Context, string, core.Params) (core.Result, error) {
	return func(_ context.Context, id string, _ core.Params) (core.Result, error) { return run(id) }
}

func newTestEngine(runner func(string) (core.Result, error)) *Engine {
	return NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: byID(runner)})
}

func TestEngineServeAndMemoize(t *testing.T) {
	var runs int
	e := newTestEngine(func(id string) (core.Result, error) {
		runs++
		return fakeResult(id), nil
	})
	defer e.Close()

	r1, err := serveDefault(e, "X1")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if r1.CacheHit || r1.Shared {
		t.Fatalf("first serve should be cold: %+v", r1)
	}
	r2, err := serveDefault(e, "X1")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !r2.CacheHit {
		t.Fatal("second serve should be a cache hit")
	}
	if runs != 1 {
		t.Fatalf("runner executions: got %d want 1", runs)
	}
	if r1.Result.Render() != r2.Result.Render() {
		t.Fatal("memoized result differs from cold result")
	}
	m := e.Metrics()
	if m.Requests != 2 || m.CacheHits != 1 || m.Executions != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if m.HitLatency.Count != 1 || m.ColdLatency.Count != 1 || m.AllLatency.Count != 2 {
		t.Fatalf("latency counts: hit=%d cold=%d all=%d",
			m.HitLatency.Count, m.ColdLatency.Count, m.AllLatency.Count)
	}
}

func TestEngineUnknownExperiment(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	if _, err := serveDefault(e, "NOPE"); err == nil {
		t.Fatal("Serve of unknown ID should fail")
	}
}

func TestEngineErrorsNotMemoized(t *testing.T) {
	var runs int
	e := newTestEngine(func(id string) (core.Result, error) {
		runs++
		if runs == 1 {
			return core.Result{}, errors.New("transient")
		}
		return fakeResult(id), nil
	})
	defer e.Close()
	if _, err := serveDefault(e, "X1"); err == nil {
		t.Fatal("first serve should surface the runner error")
	}
	r, err := serveDefault(e, "X1")
	if err != nil {
		t.Fatalf("second serve should retry and succeed: %v", err)
	}
	if r.CacheHit {
		t.Fatal("a failed run must not be memoized")
	}
	if runs != 2 {
		t.Fatalf("runner executions: got %d want 2", runs)
	}
}

// TestEngineSingleflight is the acceptance check: M simultaneous requests
// to the same experiment ID trigger exactly one underlying execution.
func TestEngineSingleflight(t *testing.T) {
	const m = 32
	release := make(chan struct{})
	e := newTestEngine(func(id string) (core.Result, error) {
		<-release
		return fakeResult(id), nil
	})
	defer e.Close()

	var started, done sync.WaitGroup
	responses := make([]Response, m)
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		i := i
		started.Add(1)
		done.Add(1)
		go func() {
			started.Done()
			defer done.Done()
			responses[i], errs[i] = serveDefault(e, "HOT")
		}()
	}
	started.Wait()
	// Give every goroutine time to pass the (empty) cache and park in
	// singleflight before the one real execution is allowed to finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	done.Wait()

	if got := e.Metrics().Executions; got != 1 {
		t.Fatalf("executions: got %d want 1 for %d simultaneous requests", got, m)
	}
	want := responses[0].Result.Render()
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if responses[i].Result.Render() != want {
			t.Fatalf("request %d got a different result", i)
		}
	}
	me := e.Metrics()
	// Every request but the executing one either shared the in-flight
	// call or (if it lost the race entirely) hit the fresh cache entry.
	if me.Deduped+me.CacheHits != m-1 {
		t.Fatalf("deduped=%d + hits=%d, want %d", me.Deduped, me.CacheHits, m-1)
	}
}

func TestEngineConcurrentDistinctIDs(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	e := NewEngine(Config{Shards: 8, Workers: 4, RunnerWith: byID(func(id string) (core.Result, error) {
		mu.Lock()
		runs[id]++
		mu.Unlock()
		return fakeResult(id), nil
	})})
	defer e.Close()

	const ids, per = 10, 20
	var wg sync.WaitGroup
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("E%d", i)
		for j := 0; j < per; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := serveDefault(e, id); err != nil {
					t.Errorf("Serve(%s): %v", id, err)
				}
			}()
		}
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for id, n := range runs {
		if n != 1 {
			t.Fatalf("experiment %s executed %d times, want 1", id, n)
		}
	}
	if len(runs) != ids {
		t.Fatalf("distinct executions: got %d want %d", len(runs), ids)
	}
}

// TestEngineLateLeaderServedFromCache covers the miss -> singleflight race:
// a caller that misses the cache but becomes flight leader only after the
// previous leader memoized must be answered from the cache, not re-execute.
func TestEngineLateLeaderServedFromCache(t *testing.T) {
	var runs int
	e := newTestEngine(func(id string) (core.Result, error) {
		runs++
		return fakeResult(id), nil
	})
	defer e.Close()
	if _, err := serveDefault(e, "X1"); err != nil {
		t.Fatal(err)
	}
	// Simulate the stale miss: the entry exists, but this caller enters
	// the miss path as a fresh flight leader (exactly what happens when
	// the first leader's Set lands between Serve's cache probe and
	// fg.Do).
	r, err := e.serveMissRaw(context.Background(), admit.Interactive, "X1", "X1", nil, e.now())
	if err != nil {
		t.Fatalf("serveMissRaw: %v", err)
	}
	if !r.CacheHit {
		t.Fatal("late leader must be answered from the cache")
	}
	if runs != 1 {
		t.Fatalf("runner executions: got %d want 1 (late leader re-executed)", runs)
	}
	m := e.Metrics()
	if m.CacheHits != 1 {
		t.Fatalf("late-leader serve must count as a hit: %+v", m)
	}
}

func TestEngineRecoversFromCorruptCacheEntry(t *testing.T) {
	var runs int
	e := newTestEngine(func(id string) (core.Result, error) {
		runs++
		return fakeResult(id), nil
	})
	defer e.Close()
	e.cache.Set("X1", []byte("not a result payload"))
	r, err := serveDefault(e, "X1")
	if err != nil {
		t.Fatalf("Serve over corrupt entry: %v", err)
	}
	if r.CacheHit {
		t.Fatal("corrupt entry must not count as a hit")
	}
	if runs != 1 {
		t.Fatalf("runner executions: got %d want 1", runs)
	}
	r2, _ := serveDefault(e, "X1")
	if !r2.CacheHit {
		t.Fatal("re-execution should repopulate the cache")
	}
}

// Reset drops every memoized result, bare and parameterized: each one
// re-executes on its next request.
func TestEngineReset(t *testing.T) {
	var runs int
	e := newTestEngine(func(id string) (core.Result, error) {
		runs++
		return fakeResult(id), nil
	})
	defer e.Close()
	p := core.Params{"bces": 512}
	serveDefault(e, "B")
	if _, err := e.ServeWith(context.Background(), "E7", p); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if r, _ := serveDefault(e, "B"); r.CacheHit {
		t.Fatal("bare entry survived Reset")
	}
	if r, _ := e.ServeWith(context.Background(), "E7", p); r.CacheHit {
		t.Fatal("parameterized entry survived Reset")
	}
	if runs != 4 {
		t.Fatalf("runs after reset: got %d want 4", runs)
	}
}

// TestEngineServesRealRegistry smoke-tests the default runner against one
// real (cheap) experiment from the core registry.
func TestEngineServesRealRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment; skipped in -short")
	}
	reg := core.Registry()
	if len(reg) == 0 {
		t.Skip("no experiments registered")
	}
	id := reg[0].ID
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	r, err := serveDefault(e, id)
	if err != nil {
		t.Fatalf("Serve(%s): %v", id, err)
	}
	if r.Result.Render() == "" {
		t.Fatalf("Serve(%s) produced empty output", id)
	}
	r2, err := serveDefault(e, id)
	if err != nil || !r2.CacheHit {
		t.Fatalf("second Serve(%s): err=%v hit=%v", id, err, r2.CacheHit)
	}
	if r2.Result.Render() != r.Result.Render() {
		t.Fatalf("memoized %s differs from cold run", id)
	}
}

// The warm ServeEncoded hit's allocations, exactly: a bare ID is its own
// cache key and is served from the slab without allocating; a caller
// with params pays for resolving them and formatting their key. Each
// bound is the measured count and only ratchets down.
func TestServeEncodedWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		p    core.Params
		max  float64
	}{
		{"bare", nil, 0},
		{"params", core.Params{"bces": 512, "f": 0.9}, 0},
	} {
		if _, err := e.ServeEncoded(ctx, "E7", tc.p); err != nil {
			t.Fatalf("%s: cold ServeEncoded: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if rr, err := e.ServeEncoded(ctx, "E7", tc.p); err != nil || !rr.CacheHit {
				t.Fatalf("%s: warm ServeEncoded: hit=%v err=%v", tc.name, rr.CacheHit, err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: warm ServeEncoded hit allocates %v times, want <= %v", tc.name, got, tc.max)
		}
	}
}
