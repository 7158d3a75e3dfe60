package router

// Fault-injection suite: FaultBackend's kills, hangs, error bursts and
// latency, over in-process engines and stream replicas, driving the
// router's failover, ejection, and re-admission machinery.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
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

// serveDecoded routes one request through ServeEncoded and decodes the
// winning payload, as a client at the edge would.
func serveDecoded(ctx context.Context, r *Router, id string, p core.Params) (serve.Response, error) {
	rr, err := r.ServeEncoded(ctx, id, p)
	if err != nil {
		return serve.Response{}, err
	}
	return decodeResponse(rr)
}

// newTestCluster builds n replicas behind a router with a controllable
// clock, each a FaultBackend over an in-process engine or, remote, over a
// stream replica serving that engine.
func newTestCluster(t *testing.T, n int, cfg Config, remote bool) (*Router, []*FaultBackend, []*serve.Engine, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	cfg.now = func() time.Time { return now }
	faults := make([]*FaultBackend, n)
	engines := make([]*serve.Engine, n)
	backends := make([]Backend, n)
	for i := range backends {
		engines[i] = newTestEngine(t)
		inner := Backend(NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i)))
		if remote {
			srv := httptest.NewServer(engines[i].Handler())
			t.Cleanup(srv.Close)
			inner = NewHTTPBackend(srv.URL)
		}
		faults[i] = NewFaultBackend(inner)
		backends[i] = faults[i]
	}
	r, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, faults, engines, &now
}

func TestRouterPlacementIsStableAndMemoizes(t *testing.T) {
	r, _, engines, _ := newTestCluster(t, 3, Config{}, false)
	for i, wantHit := range []bool{false, true} {
		resp, err := serveDecoded(context.Background(), r, "X1", nil)
		if err != nil || resp.CacheHit != wantHit {
			t.Fatalf("request %d: cache_hit %v, err %v; want %v", i, resp.CacheHit, err, wantHit)
		}
	}
	served := 0
	for _, e := range engines {
		if c := e.Metrics().Requests; c > 0 {
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

func TestFailoverServesFromSuccessor(t *testing.T) {
	r, faults, _, _ := newTestCluster(t, 3, Config{FailThreshold: 100}, false)
	faults[ownerOf(r, "X1", nil)].ErrorBurst(1)
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

// A killed owner is ejected after FailThreshold failures, sees no traffic
// while ejected, stays dark through a failed probe, and is re-admitted by
// the first probe after its revival: in process, and over the stream,
// where the probe is the replica's /healthz.
func TestEjectionStopsTrafficAndProbeReadmits(t *testing.T) {
	for _, remote := range []bool{false, true} {
		r, faults, engines, now := newTestCluster(t, 3, Config{FailThreshold: 3, ProbeAfter: time.Second}, remote)
		owner := ownerOf(r, "X1", nil)
		serveX1 := func(what string) {
			t.Helper()
			if _, err := serveDecoded(context.Background(), r, "X1", nil); err != nil {
				t.Fatalf("remote %v: %s: %v", remote, what, err)
			}
		}
		faults[owner].Kill()
		for i := 0; i < 3; i++ {
			serveX1("failover should mask the killed owner")
		}
		if !r.Metrics().Health[owner].Ejected {
			t.Fatalf("remote %v: owner should be ejected after 3 consecutive failures: %+v", remote, r.Metrics().Health)
		}
		// While ejected, and before the probe window, the owner sees no
		// traffic at all.
		before := faults[owner].faults.Load()
		for i := 0; i < 5; i++ {
			serveX1("serve during ejection")
		}
		if got := faults[owner].faults.Load(); got != before {
			t.Fatalf("remote %v: ejected backend took %d calls", remote, got-before)
		}
		// Past the probe window with the backend still down: the probe
		// fails, re-arms, and the owner stays dark.
		*now = now.Add(2 * time.Second)
		serveX1("serve during a failed probe")
		sc := &r.sb.scores[owner]
		sc.mu.Lock()
		rearmed := sc.nextProbe.Equal(now.Add(time.Second))
		sc.mu.Unlock()
		if !rearmed || !r.Metrics().Health[owner].Ejected || faults[owner].faults.Load() != before {
			t.Fatalf("remote %v: a failed probe must re-arm and not re-admit", remote)
		}
		// Revived: the next probe re-admits and traffic returns.
		faults[owner].Revive()
		*now = now.Add(2 * time.Second)
		reqs := engines[owner].Metrics().Requests
		serveX1("serve after recovery")
		if r.Metrics().Health[owner].Ejected || engines[owner].Metrics().Requests != reqs+1 {
			t.Fatalf("remote %v: a successful probe should re-admit the owner to its key's traffic", remote)
		}
	}
}

func TestHardHangTimesOutAndFailsOver(t *testing.T) {
	r, faults, _, _ := newTestCluster(t, 3, Config{Timeout: 50 * time.Millisecond, FailThreshold: 1}, false)
	owner := ownerOf(r, "X1", nil)
	faults[owner].Hang()
	defer faults[owner].Release()

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
	r, _, _, _ := newTestCluster(t, 2, Config{FailThreshold: 1}, false)
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
}

func TestAllBackendsFailingExhaustsWithError(t *testing.T) {
	r, faults, _, _ := newTestCluster(t, 3, Config{FailThreshold: 100}, false)
	for _, f := range faults {
		f.Kill()
	}
	_, err := serveDecoded(context.Background(), r, "X1", nil)
	if err == nil {
		t.Fatal("all-failing cluster should error")
	}
	if m := r.Metrics(); m.Exhausted != 1 {
		t.Fatalf("want 1 exhausted, metrics: %+v", m)
	}
	// After all are ejected (threshold crossed), the error is ErrNoBackends.
	r2, faults2, _, _ := newTestCluster(t, 2, Config{FailThreshold: 1, ProbeAfter: time.Hour}, false)
	for _, f := range faults2 {
		f.Kill()
	}
	_, _ = serveDecoded(context.Background(), r2, "X1", nil)
	_, err = serveDecoded(context.Background(), r2, "X1", nil)
	if !errors.Is(err, ErrNoBackends) {
		t.Fatalf("want ErrNoBackends once every replica is ejected, got %v", err)
	}
}

func TestErrorRateIsMaskedByRetries(t *testing.T) {
	// A flaky replica in a 3-node cluster — a burst of three failed frames
	// every ten requests, enough to eject it — is masked by the router's
	// bounded retries: callers see zero errors while the flaky node keeps
	// getting ejected and re-admitted.
	r, faults, _, now := newTestCluster(t, 3, Config{FailThreshold: 3, ProbeAfter: time.Millisecond}, false)
	for i := 0; i < 200; i++ {
		if i%10 == 0 {
			faults[1].ErrorBurst(3)
		}
		if _, err := serveDecoded(context.Background(), r, fmt.Sprintf("X%d", i%17), nil); err != nil {
			t.Fatalf("request %d escaped the retry mask: %v", i, err)
		}
		*now = now.Add(time.Millisecond)
	}
	if m := r.Metrics(); m.Failovers == 0 || m.Health[1].Failures == 0 {
		t.Fatalf("the flaky node never failed: %+v", m)
	}
}

func TestLatencySpikeDoesNotFailRequests(t *testing.T) {
	r, faults, _, _ := newTestCluster(t, 2, Config{Timeout: 5 * time.Second}, false)
	for _, f := range faults {
		f.Degrade(20 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		if _, err := serveDecoded(context.Background(), r, fmt.Sprintf("S%d", i), nil); err != nil {
			t.Fatalf("slow-but-alive backend failed request: %v", err)
		}
	}
}

// A replica that answers with HTTP 500s, behind a genuine server, is
// failed over and ejected; a healthy /healthz re-admits it; and its 404
// for an unknown experiment surfaces as the caller's error without
// ejecting anyone.
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
	var fail atomic.Bool // 500 every request, /healthz too, while set
	h0 := engines[0].Handler()
	srv0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		h0.ServeHTTP(w, r)
	}))
	defer srv0.Close()
	srv1 := httptest.NewServer(engines[1].Handler())
	defer srv1.Close()

	now := time.Unix(1000, 0)
	r, err := New([]Backend{NewHTTPBackend(srv0.URL), NewHTTPBackend(srv1.URL)},
		Config{FailThreshold: 2, ProbeAfter: time.Second, now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}

	// Find a key owned by the failing server.
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("X%d", i)
		if ownerOf(r, k, nil) == 0 {
			key = k
			break
		}
	}

	fail.Store(true)
	for i := 0; i < 2; i++ {
		if _, err := serveDecoded(context.Background(), r, key, nil); err != nil {
			t.Fatalf("failover over HTTP: %v", err)
		}
	}
	if !r.Metrics().Health[0].Ejected {
		t.Fatal("HTTP 500s should eject the replica")
	}

	// Recovery: probe /healthz re-admits.
	fail.Store(false)
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
