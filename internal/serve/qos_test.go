package serve

// QoS tests for the class-based engine: per-class conservation law under
// concurrent mixed-class traffic, shed accounting, deadline-aware
// admission surfacing as 429/503 + Retry-After over HTTP, and the
// header contract (X-Arch21-Class, X-Arch21-Deadline-MS).

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// slowRunner sleeps for d per execution, honoring ctx.
func slowRunner(d time.Duration) func(context.Context, string, core.Params) (core.Result, error) {
	return func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
		select {
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		case <-time.After(d):
		}
		return fakeResult(id), nil
	}
}

// The per-class conservation law: for each class, at quiescence,
// hits + deduped + sheds + executions == requests. Hammered concurrently
// with mixed classes, tight queues (so interactive sheds really happen),
// per-caller deadlines (so deadline sheds happen), and repeated keys (so
// hits and singleflight dedup happen), through both entry points. Hits and
// requests are derived (the hit histogram's count; that plus the miss-path
// counter), so both renderings of them are checked. Run under -race in CI.
func TestEngineClassConservationLaw(t *testing.T) {
	e := NewEngine(Config{
		Shards: 4, Workers: 2, Queue: 2,
		RunnerWith: slowRunner(2 * time.Millisecond),
	})
	defer e.Close()

	const goroutines = 64
	const perG = 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx := context.Background()
				if g%2 == 0 {
					ctx = admit.WithClass(ctx, admit.Batch)
				}
				if g%5 == 0 {
					// Tight deadlines provoke deadline sheds and mid-run
					// cancellations.
					c, cancel := context.WithTimeout(ctx, time.Duration(1+g%4)*time.Millisecond)
					defer cancel()
					ctx = c
				}
				// A small key space mixes cold runs, hits, and dedup.
				id := fmt.Sprintf("K%d", (g+i)%6)
				if i%2 == 0 {
					_, _ = e.ServeWith(ctx, id, nil)
				} else {
					_, _ = e.ServeEncoded(ctx, id, nil)
				}
			}
		}()
	}
	wg.Wait()

	m := e.Metrics()
	var total int64
	for _, class := range admit.Classes() {
		cm := m.Classes[class.String()]
		if err := cm.Balance(); err != nil {
			t.Errorf("%s: %v", class, err)
		}
		if cc := &e.classes[class]; cm.CacheHits != int64(cm.HitLatency.Count) ||
			cm.CacheHits != cc.hits() || cm.Requests != cc.requests() || cm.CacheHits == 0 {
			t.Errorf("%s: hits %d (latency count %d, /metrics %d), requests %d (/metrics %d)",
				class, cm.CacheHits, cm.HitLatency.Count, cc.hits(), cm.Requests, cc.requests())
		}
		total += cm.Requests
	}
	if want := int64(goroutines * perG); total != want {
		t.Fatalf("total requests %d, want %d", total, want)
	}
	// The aggregate view must equal the class sums.
	agg := ClassMetrics{Requests: m.Requests, CacheHits: m.CacheHits, Deduped: m.Deduped,
		Sheds: m.Sheds, Executions: m.Executions}
	if err := agg.Balance(); m.Requests != total || err != nil {
		t.Fatalf("aggregate books unbalanced (%v): %+v", err, m)
	}
}

// A full interactive queue sheds with ShedError while batch backpressures.
func TestEngineInteractiveShedsBatchBackpressures(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	unpin := func() { releaseOnce.Do(func() { close(release) }) }
	pinned := make(chan struct{})
	e := NewEngine(Config{
		Shards: 2, Workers: 1, Queue: 1,
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			if id == "PIN" {
				close(pinned)
			}
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-release:
			}
			return fakeResult(id), nil
		},
	})
	defer e.Close()
	defer unpin() // LIFO: a failing assertion must not leave Close waiting on the pinned runner

	// Pin the worker, then fill the interactive queue (distinct keys so
	// singleflight cannot collapse them). Q1 must only be submitted once
	// PIN is *running* — while PIN is still queued it occupies the one
	// queue slot and Q1 would be shed instead of queued.
	go serveDefault(e, "PIN")
	<-pinned
	go serveDefault(e, "Q1")
	waitFor(t, func() bool {
		return e.Metrics().Classes[admit.Interactive.String()].QueueDepth >= 1
	})

	_, err := serveDefault(e, "SHED-ME")
	if !errors.Is(err, admit.ErrShed) {
		t.Fatalf("interactive over full queue = %v, want a shed", err)
	}
	m := e.Metrics().Classes[admit.Interactive.String()]
	if m.Sheds != 1 {
		t.Fatalf("interactive sheds = %d, want 1", m.Sheds)
	}

	// Batch over its full queue blocks instead (backpressure), and
	// completes once the worker frees.
	bctx := admit.WithClass(context.Background(), admit.Batch)
	go e.ServeWith(bctx, "B1", nil)
	waitFor(t, func() bool {
		return e.Metrics().Classes[admit.Batch.String()].QueueDepth >= 1
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.ServeWith(bctx, "B2", nil)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("batch over full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	unpin()
	if err := <-done; err != nil {
		t.Fatalf("backpressured batch request: %v", err)
	}
}

// Queue-full and deadline sheds surface over HTTP as 503 and 429, both
// with a Retry-After hint; the class and deadline ride the request
// headers end to end.
func TestHandlerShedStatusAndRetryAfter(t *testing.T) {
	release := make(chan struct{})
	pinned := make(chan struct{})
	e := NewEngine(Config{
		Shards: 2, Workers: 1, Queue: 1,
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			if id == "FAST" {
				return fakeResult(id), nil
			}
			if id == "PIN" {
				close(pinned)
			}
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-release:
			}
			return fakeResult(id), nil
		},
	})
	defer e.Close()
	defer close(release) // LIFO: release the pinned runner before Close drains
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	get := func(path string, hdr map[string]string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Fast-path checks first, while a worker is still free. Bad class
	// header: 400.
	if resp := get("/run/FAST", map[string]string{admit.HeaderClass: "bulk"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad class header status = %d, want 400", resp.StatusCode)
	}
	// Bad deadline header: 400.
	if resp := get("/run/FAST", map[string]string{admit.HeaderDeadlineMS: "NaN"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline header status = %d, want 400", resp.StatusCode)
	}
	// A labeled batch request is served and accounted as batch.
	if resp := get("/run/FAST", map[string]string{admit.HeaderClass: "batch"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch-labeled request status = %d, want 200", resp.StatusCode)
	}
	if got := e.Metrics().Classes[admit.Batch.String()].Requests; got < 1 {
		t.Fatalf("batch-labeled request not accounted under batch class (requests=%d)", got)
	}

	// Now pin the worker, then fill the interactive queue (Q1 only once
	// PIN is running — a still-queued PIN would occupy the one slot and
	// shed Q1 instead).
	go serveDefault(e, "PIN")
	<-pinned
	go serveDefault(e, "Q1")
	waitFor(t, func() bool {
		return e.Metrics().Classes[admit.Interactive.String()].QueueDepth >= 1
	})

	// Queue-full interactive shed: 503 + Retry-After.
	resp := get("/run/SHED", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queue-full shed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 shed carries no Retry-After")
	}

	// Deadline-doomed request: a microscopic budget against a pinned
	// worker either sheds at admission (429 + Retry-After) or expires in
	// flight (504).
	resp = get("/run/DL", map[string]string{
		admit.HeaderClass:      "batch",
		admit.HeaderDeadlineMS: "0.01",
	})
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-doomed request status = %d, want 429 (projected shed) or 504 (expired in flight)", resp.StatusCode)
	}
	if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 shed carries no Retry-After")
	}
}

// Cache hits are served even under a canceled context — they cost
// microseconds and the result is already paid for — while cold runs are
// canceled.
func TestEngineHitsServeUnderCanceledContext(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	if _, err := serveDefault(e, "X1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := e.ServeWith(ctx, "X1", nil)
	if err != nil || !r.CacheHit {
		t.Fatalf("hit under canceled ctx = (%+v, %v), want served hit", r, err)
	}
	if _, err := e.ServeWith(ctx, "COLD", nil); err == nil {
		t.Fatal("cold run under canceled ctx should fail")
	}
}

// SetBatchRate reaches the live scheduler.
func TestEngineSetBatchRate(t *testing.T) {
	e := NewEngine(Config{Workers: 1, BatchRate: 10})
	defer e.Close()
	if got := e.sched.BatchRate(); got != 10 {
		t.Fatalf("BatchRate = %v, want 10", got)
	}
	e.SetBatchRate(3)
	if got := e.sched.BatchRate(); got != 3 {
		t.Fatalf("BatchRate after SetBatchRate = %v, want 3", got)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TakeClassWindow returns per-window snapshots and starts afresh between
// calls — the live signal the SLO controller steers on.
func TestEngineTakeClassWindow(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	for i := 0; i < 5; i++ {
		if _, err := serveDefault(e, fmt.Sprintf("W%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	win := e.TakeClassWindow(admit.Interactive)
	if win.Count != 5 {
		t.Fatalf("first window count = %d, want 5", win.Count)
	}
	if win.P99 <= 0 {
		t.Fatal("window has no p99")
	}
	// The window resets: with no further traffic the next take is empty.
	if win := e.TakeClassWindow(admit.Interactive); win.Count != 0 {
		t.Fatalf("fresh window count = %d, want 0", win.Count)
	}
	// New traffic lands in the new window only.
	if _, err := serveDefault(e, "W0"); err != nil { // a hit now
		t.Fatal(err)
	}
	if win := e.TakeClassWindow(admit.Interactive); win.Count != 1 {
		t.Fatalf("window after one request = %d, want 1", win.Count)
	}
	// The batch window is independent.
	if win := e.TakeClassWindow(admit.Batch); win.Count != 0 {
		t.Fatalf("batch window = %d, want 0", win.Count)
	}
}

// The window is a snapshot difference, so the boundary loses nothing: with
// requests racing a controller that takes windows as fast as it can, the
// windows' counts (and the residual one) add up to the requests made,
// exactly — the recorder swap this replaced could drop an observation.
func TestTakeClassWindowLosesNothing(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	const goroutines, each = 8, 3000
	var serving atomic.Int32
	serving.Store(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer serving.Add(-1)
			for i := 0; i < each; i++ {
				if _, err := e.ServeEncoded(context.Background(), fmt.Sprintf("W%d", (g+i)%5), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	total, windows := 0, 0
	for running := true; running; windows++ {
		running = serving.Load() > 0 // the pass after the last one leaves takes the residual
		win := e.TakeClassWindow(admit.Interactive)
		if win.Count > 0 && (win.P99 <= 0 || win.Min > win.P50 || win.P50 > win.P99 || win.P99 > win.Max) {
			t.Fatalf("window %d is not ordered: %+v", windows, win)
		}
		total += win.Count
	}
	if total != goroutines*each {
		t.Fatalf("%d windows hold %d observations, %d requests were served", windows, total, goroutines*each)
	}
	if allocs := testing.AllocsPerRun(50, func() { e.TakeClassWindow(admit.Interactive) }); allocs != 0 {
		t.Errorf("TakeClassWindow allocates %.0f times per tick, want 0", allocs)
	}
}

// httpapi.WriteServingError, what the engine's /run answers sheds with,
// maps every QoS outcome; non-QoS errors keep the replica's fallback or
// their own status, without a retry hint.
func TestWriteShedHeadersMapping(t *testing.T) {
	cases := []struct {
		err        error
		wantStatus int
		retryAfter bool
	}{
		{&admit.ShedError{Class: admit.Interactive, RetryAfter: 1500 * time.Millisecond}, http.StatusServiceUnavailable, true},
		{&admit.ShedError{Class: admit.Batch, Deadline: true}, http.StatusTooManyRequests, true},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{context.Canceled, http.StatusServiceUnavailable, false},
		{errors.New("boom"), http.StatusInternalServerError, false},
		{ErrUnknownExperiment, http.StatusNotFound, false},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		httpapi.WriteServingError(rec, c.err, http.StatusInternalServerError)
		if rec.Code != c.wantStatus {
			t.Fatalf("httpapi.WriteServingError(%v) status = %d, want %d", c.err, rec.Code, c.wantStatus)
		}
		if got := rec.Header().Get("Retry-After") != ""; got != c.retryAfter {
			t.Fatalf("httpapi.WriteServingError(%v): Retry-After present = %v, want %v", c.err, got, c.retryAfter)
		}
	}
}
