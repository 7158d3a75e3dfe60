package router

// Fault-injection suite: a flaky-backend test double with configurable
// error bursts, error rates, latency spikes, and hard hangs, driving the
// router's failover, ejection, and re-admission machinery — plus an HTTP
// double proving the same over a real wire.

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
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/stats"
)

// fakeResult builds a small deterministic result.
func fakeResult(id string) core.Result {
	tb := report.NewTable("result for "+id, "metric", "value")
	tb.AddRow("answer", "42")
	return core.Result{Table: tb, Findings: []string{"finding for " + id}}
}

// newTestEngine builds a small engine whose runner serves any ID.
func newTestEngine(t *testing.T) *serve.Engine {
	t.Helper()
	e := serve.NewEngine(serve.Config{Shards: 4, Workers: 2,
		RunnerWith: func(_ context.Context, id string, _ core.Params) (core.Result, error) { return fakeResult(id), nil }})
	t.Cleanup(e.Close)
	return e
}

// perRequest adapts a per-request serving function to Backend.DoBatch:
// the one adapter every per-request double in this package (flakyBackend,
// backendFunc, hangingBackend, errBackend) gets its DoBatch through. Each
// item is served on its own under its own class, and a failure is that
// item's outcome, never the frame's.
type perRequest func(ctx context.Context, id string, p core.Params) (serve.Response, error)

func (f perRequest) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	outs := make([]serve.BatchOutcome, len(items))
	for i, it := range items {
		resp, err := f(admit.WithClass(ctx, it.Class), it.ID, it.Params)
		if err != nil {
			outs[i].Err = err
			continue
		}
		outs[i].RawResponse = serve.RawResponse{ID: resp.ID, Params: resp.Params, Key: resp.Key,
			Class: resp.Class, Raw: resp.Result.Encode(), CacheHit: resp.CacheHit, Shared: resp.Shared,
			Latency: resp.Latency}
	}
	return outs, nil
}

// serveOne is the adapter's other direction: one request served on any
// Backend as a frame of one and decoded, for doubles that wrap a real
// backend and for tests that drive a backend directly.
func serveOne(ctx context.Context, b Backend, id string, p core.Params) (serve.Response, error) {
	outs, err := b.DoBatch(ctx, []serve.BatchItem{itemOf(serve.IdentOf(id, p), admit.ClassFrom(ctx))})
	if err == nil {
		err = outs[0].Err
	}
	if err != nil {
		return serve.Response{}, err
	}
	return decodeResponse(outs[0].RawResponse)
}

// serveDecoded routes one request through ServeEncoded and decodes the
// winning payload, as a client at the edge would.
func serveDecoded(ctx context.Context, r *Router, id string, p core.Params) (serve.Response, error) {
	rr, err := r.ServeEncoded(ctx, id, p)
	if err != nil {
		return serve.Response{}, err
	}
	return decodeResponse(rr)
}

// flakyBackend wraps an inner backend with injectable faults: fail the
// next N calls, fail a fraction of calls, delay every call, or hang
// outright until released. Check fails while the backend is "down" so
// re-admission is observable.
type flakyBackend struct {
	inner Backend
	name  string

	mu       sync.Mutex
	failNext int           // hard-fail this many upcoming calls
	errRate  float64       // fraction of calls failed at random
	rng      *stats.RNG    // errRate draws
	latency  time.Duration // added to every call (latency spike)
	hung     chan struct{} // when non-nil, every request blocks until closed or its context ends
	down     bool          // Check fails while set

	calls  atomic.Int64
	checks atomic.Int64
}

func newFlaky(inner Backend, name string) *flakyBackend {
	return &flakyBackend{inner: inner, name: name, rng: stats.NewRNG(99)}
}

func (f *flakyBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	return perRequest(f.do).DoBatch(ctx, items)
}

func (f *flakyBackend) do(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	f.calls.Add(1)
	f.mu.Lock()
	hung := f.hung
	lat := f.latency
	fail := false
	if f.failNext > 0 {
		f.failNext--
		fail = true
	} else if f.errRate > 0 && f.rng.Float64() < f.errRate {
		fail = true
	}
	f.mu.Unlock()
	if hung != nil { // a wedged replica, released or abandoned (the Backend contract)
		select {
		case <-hung:
		case <-ctx.Done():
			return serve.Response{}, ctx.Err()
		}
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	if fail {
		return serve.Response{}, errors.New("injected fault")
	}
	return serveOne(ctx, f.inner, id, p)
}

func (f *flakyBackend) Check() error {
	f.checks.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return errors.New("injected down")
	}
	return nil
}

func (f *flakyBackend) Name() string { return f.name }

func (f *flakyBackend) setDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

func (f *flakyBackend) failN(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// newTestCluster builds n engine backends behind a router, each wrapped
// flaky, with a controllable clock.
func newTestCluster(t *testing.T, n int, cfg Config) (*Router, []*flakyBackend, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	cfg.now = func() time.Time { return now }
	flakies := make([]*flakyBackend, n)
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		flakies[i] = newFlaky(NewEngineBackend(newTestEngine(t), fmt.Sprintf("engine[%d]", i)), fmt.Sprintf("flaky[%d]", i))
		backends[i] = flakies[i]
	}
	r, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, flakies, &now
}

func TestRouterPlacementIsStableAndMemoizes(t *testing.T) {
	r, flakies, _ := newTestCluster(t, 3, Config{})
	resp1, err := serveDecoded(context.Background(), r, "X1", nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if resp1.CacheHit {
		t.Fatal("first routed serve should be cold")
	}
	resp2, err := serveDecoded(context.Background(), r, "X1", nil)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !resp2.CacheHit {
		t.Fatal("repeat routed serve should hit the owning replica's cache")
	}
	served := 0
	for _, f := range flakies {
		if c := f.calls.Load(); c > 0 {
			served++
			if c != 2 {
				t.Fatalf("owner should have taken both requests, got %d", c)
			}
		}
	}
	if served != 1 {
		t.Fatalf("one owner should serve a single key, %d backends took calls", served)
	}
	if m := r.Metrics(); m.Requests != 2 || m.Failovers != 0 {
		t.Fatalf("metrics: %+v", m)
	}
}

// ownerOf is the backend index placement gives (id, p), health ignored:
// the ring's pick for the pair's identity key.
func ownerOf(r *Router, id string, p core.Params) int {
	return r.ring.Place(cluster.HashString(serve.IdentOf(id, p).Key()))
}

// The placement key is the engine's cache key.
func TestRouteKeyAgreesWithEngineCacheKey(t *testing.T) {
	// Registered experiment: explicit defaults collapse onto the bare ID,
	// so default-param traffic routes with zero-param traffic.
	exp, ok := core.ByID("E7")
	if !ok {
		t.Skip("E7 not registered")
	}
	defaults, err := exp.ResolveParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := serve.IdentOf("E7", defaults).Key(); got != "E7" {
		t.Fatalf("explicit-default placement key = %q, want bare E7", got)
	}
	p := core.Params{"f": 0.99}
	resolved, err := exp.ResolveParams(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := serve.IdentOf("E7", p).Key(), exp.CacheKey(resolved); got != want {
		t.Fatalf("placement key = %q, want engine cache key %q", got, want)
	}
	// Unregistered IDs fall back to the ad-hoc sorted form.
	if got := serve.IdentOf("ZZ", core.Params{"b": 2, "a": 1}).Key(); got != "ZZ?a=1&b=2" {
		t.Fatalf("ad-hoc placement key = %q", got)
	}
}

func TestFailoverServesFromSuccessor(t *testing.T) {
	r, flakies, _ := newTestCluster(t, 3, Config{FailThreshold: 100})
	owner := ownerOf(r, "X1", nil)
	flakies[owner].failN(1)
	resp, err := serveDecoded(context.Background(), r, "X1", nil)
	if err != nil {
		t.Fatalf("Serve with failing owner: %v", err)
	}
	if resp.Result.Render() != fakeResult("X1").Render() {
		t.Fatal("failover served a wrong result")
	}
	if m := r.Metrics(); m.Failovers != 1 {
		t.Fatalf("want 1 failover, metrics: %+v", m)
	}
}

func TestEjectionStopsTrafficAndProbeReadmits(t *testing.T) {
	r, flakies, now := newTestCluster(t, 3, Config{FailThreshold: 3, ProbeAfter: time.Second})
	owner := ownerOf(r, "X1", nil)
	flakies[owner].failN(1000)
	flakies[owner].setDown(true)

	// Three failed requests eject the owner.
	for i := 0; i < 3; i++ {
		if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
			t.Fatalf("failover should mask the flaky owner: %v", err)
		}
	}
	if !r.Metrics().Health[owner].Ejected {
		t.Fatalf("owner should be ejected after 3 consecutive failures: %+v", r.Metrics().Health)
	}

	// While ejected (and before the probe window), the owner sees no
	// traffic at all.
	before := flakies[owner].calls.Load()
	for i := 0; i < 5; i++ {
		if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
			t.Fatalf("Serve during ejection: %v", err)
		}
	}
	if got := flakies[owner].calls.Load(); got != before {
		t.Fatalf("ejected backend took %d calls", got-before)
	}

	// Past the probe window with the backend still down: one Check, still
	// dark.
	*now = now.Add(2 * time.Second)
	if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
		t.Fatalf("Serve during failed probe: %v", err)
	}
	if flakies[owner].checks.Load() == 0 {
		t.Fatal("probe window elapsed but no health check issued")
	}
	if !r.Metrics().Health[owner].Ejected {
		t.Fatal("failed probe must not re-admit")
	}

	// Backend recovers: next probe re-admits and traffic returns.
	flakies[owner].setDown(false)
	flakies[owner].failN(0)
	*now = now.Add(2 * time.Second)
	if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
		t.Fatalf("Serve after recovery: %v", err)
	}
	if r.Metrics().Health[owner].Ejected {
		t.Fatal("successful probe should re-admit")
	}
	before = flakies[owner].calls.Load()
	if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
		t.Fatalf("Serve after re-admission: %v", err)
	}
	if flakies[owner].calls.Load() != before+1 {
		t.Fatal("re-admitted owner should take its key's traffic again")
	}
}

func TestHardHangTimesOutAndFailsOver(t *testing.T) {
	r, flakies, _ := newTestCluster(t, 3, Config{Timeout: 50 * time.Millisecond, FailThreshold: 1})
	owner := ownerOf(r, "X1", nil)
	hang := make(chan struct{})
	flakies[owner].mu.Lock()
	flakies[owner].hung = hang
	flakies[owner].mu.Unlock()
	defer close(hang)

	t0 := time.Now()
	resp, err := serveDecoded(context.Background(), r, "X1", nil)
	if err != nil {
		t.Fatalf("Serve with hung owner: %v", err)
	}
	if resp.CacheHit {
		t.Fatal("first serve should be cold")
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("hung owner stalled the request for %v", el)
	}
	if !r.Metrics().Health[owner].Ejected {
		t.Fatal("timeout should count toward ejection")
	}
	// Subsequent requests to the same key skip the wedged owner without
	// waiting out the timeout.
	t0 = time.Now()
	if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
		t.Fatalf("Serve after ejection: %v", err)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("ejected wedged owner still delayed the request %v", el)
	}
}

func TestClientErrorsDoNotFailOverOrEject(t *testing.T) {
	r, flakies, _ := newTestCluster(t, 2, Config{FailThreshold: 1})
	// Unknown param against a registered zero-param fake runner: the
	// engine resolves against the core registry, which errors.
	_, err := serveDecoded(context.Background(), r, "E7", core.Params{"nope": 1})
	if err == nil {
		t.Fatal("bad params should error")
	}
	if !errors.Is(err, serve.ErrBadParams) {
		t.Fatalf("want ErrBadParams, got %v", err)
	}
	m := r.Metrics()
	if m.Failovers != 0 {
		t.Fatalf("client errors must not fail over: %+v", m)
	}
	for i, h := range m.Health {
		if h.Ejected {
			t.Fatalf("client errors must not eject backend %d", i)
		}
	}
	_ = flakies
}

func TestAllBackendsFailingExhaustsWithError(t *testing.T) {
	r, flakies, _ := newTestCluster(t, 3, Config{FailThreshold: 100})
	for _, f := range flakies {
		f.failN(1000)
	}
	_, err := serveDecoded(context.Background(), r, "X1", nil)
	if err == nil {
		t.Fatal("all-failing cluster should error")
	}
	if m := r.Metrics(); m.Exhausted != 1 {
		t.Fatalf("want 1 exhausted, metrics: %+v", m)
	}
	// After all are ejected (threshold crossed), the error is ErrNoBackends.
	r2, flakies2, _ := newTestCluster(t, 2, Config{FailThreshold: 1, ProbeAfter: time.Hour})
	for _, f := range flakies2 {
		f.failN(1000)
		f.setDown(true)
	}
	_, _ = serveDecoded(context.Background(), r2, "X1", nil)
	_, err = serveDecoded(context.Background(), r2, "X1", nil)
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("want ErrNoBackends once every replica is ejected, got %v", err)
	}
}

func TestErrorRateIsMaskedByRetries(t *testing.T) {
	// A 30%-flaky replica in a 3-node cluster: the router's bounded
	// retries mask every fault (failover succeeds), so callers see zero
	// errors even while the flaky node keeps getting ejected/re-admitted.
	r, flakies, now := newTestCluster(t, 3, Config{FailThreshold: 3, ProbeAfter: time.Millisecond})
	flakies[1].mu.Lock()
	flakies[1].errRate = 0.3
	flakies[1].mu.Unlock()
	for i := 0; i < 200; i++ {
		if _, err := serveDecoded(context.Background(), r, fmt.Sprintf("X%d", i%17), nil); err != nil {
			t.Fatalf("request %d escaped the retry mask: %v", i, err)
		}
		*now = now.Add(time.Millisecond)
	}
}

func TestLatencySpikeDoesNotFailRequests(t *testing.T) {
	r, flakies, _ := newTestCluster(t, 2, Config{Timeout: 5 * time.Second})
	flakies[0].mu.Lock()
	flakies[0].latency = 20 * time.Millisecond
	flakies[0].mu.Unlock()
	flakies[1].mu.Lock()
	flakies[1].latency = 20 * time.Millisecond
	flakies[1].mu.Unlock()
	for i := 0; i < 5; i++ {
		if _, err := serveDecoded(context.Background(), r, fmt.Sprintf("S%d", i), nil); err != nil {
			t.Fatalf("slow-but-alive backend failed request: %v", err)
		}
	}
}

// httpFlaky is the HTTP-level double: a real engine handler behind a
// switchable fault layer, so HTTPBackend's wire behavior (status mapping,
// health probes) is tested against a genuine server.
type httpFlaky struct {
	handler http.Handler
	fail    atomic.Bool // 500 every /run while set; /healthz fails too
}

func (h *httpFlaky) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.fail.Load() {
		http.Error(w, "injected outage", http.StatusInternalServerError)
		return
	}
	h.handler.ServeHTTP(w, r)
}

func TestHTTPBackendFailoverEjectionReadmission(t *testing.T) {
	// The fake runner must 404 unknown-prefixed IDs so the client-error
	// path is exercised over the wire.
	newEng := func() *serve.Engine {
		e := serve.NewEngine(serve.Config{Shards: 4, Workers: 2,
			RunnerWith: func(_ context.Context, id string, _ core.Params) (core.Result, error) {
				if len(id) >= 4 && id[:4] == "NOPE" {
					return core.Result{}, fmt.Errorf("%w %q", serve.ErrUnknownExperiment, id)
				}
				return fakeResult(id), nil
			}})
		t.Cleanup(e.Close)
		return e
	}
	engines := []*serve.Engine{newEng(), newEng()}
	fl := &httpFlaky{handler: engines[0].Handler()}
	srv0 := httptest.NewServer(fl)
	defer srv0.Close()
	srv1 := httptest.NewServer(engines[1].Handler())
	defer srv1.Close()

	now := time.Unix(1000, 0)
	r, err := New([]Backend{NewHTTPBackend(srv0.URL), NewHTTPBackend(srv1.URL)},
		Config{FailThreshold: 2, ProbeAfter: time.Second, now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}

	// Find a key owned by the flaky server.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("X%d", i)
		if r.ring.Place(cluster.HashString(k)) == 0 {
			key = k
			break
		}
	}

	fl.fail.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := serveDecoded(context.Background(), r, key, nil); err != nil {
			t.Fatalf("failover over HTTP: %v", err)
		}
	}
	if !r.Metrics().Health[0].Ejected {
		t.Fatal("HTTP 500s should eject the replica")
	}

	// Recovery: probe /healthz re-admits.
	fl.fail.Store(false)
	now = now.Add(2 * time.Second)
	if _, err := serveDecoded(context.Background(), r, key, nil); err != nil {
		t.Fatalf("Serve after HTTP recovery: %v", err)
	}
	if r.Metrics().Health[0].Ejected {
		t.Fatal("healthy /healthz should re-admit the replica")
	}

	// A 404 from the replica is the caller's fault: surfaced as-is, no
	// ejection.
	if _, err := serveDecoded(context.Background(), r, "NOPE-unregistered", nil); err == nil {
		t.Fatal("unknown experiment over HTTP should error")
	} else if s := replicaStatus(err); s < 400 || s >= 500 {
		t.Fatalf("404 should surface as a client error, got %v", err)
	}
	if r.Metrics().Health[0].Ejected || r.Metrics().Health[1].Ejected {
		t.Fatal("client errors must not eject")
	}
}
