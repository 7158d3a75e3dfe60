package router

// Observability-plane acceptance for the routing front-end: the router's
// own /metrics must lint clean under load, and POST /control must retune
// every replica of a live 3-node HTTP cluster without restarts — the
// cluster-wide control story ISSUE's acceptance criteria pin.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func TestRouterMetricsExpositionClean(t *testing.T) {
	r, engines := newRegistryCluster(t, 3, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	for i := 0; i < 12; i++ {
		if _, err := serveDecoded(context.Background(), r, fmt.Sprintf("E%d", 1+i%3), nil); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", rec.Code)
	}
	body := rec.Body.String()
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Fatalf("router /metrics not promlint-clean:\n  %s", strings.Join(problems, "\n  "))
	}
	for _, want := range []string{
		"# TYPE arch21_router_backends gauge",
		"# TYPE arch21_router_requests_total counter",
		"# TYPE arch21_router_failovers_total counter",
		`arch21_backend_up{backend="engine[0]"} 1`,
		`arch21_backend_requests_total{backend="engine[1]"}`,
		`arch21_backend_ejections_total{backend="engine[2]"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// TestControlFanOutInProcess covers the fan-out semantics cheaply: every
// EngineBackend applies, a non-Controller backend reports "unsupported".
func TestControlFanOutInProcess(t *testing.T) {
	engines := make([]*serve.Engine, 2)
	backends := make([]Backend, 3)
	for i := range engines {
		engines[i] = serve.NewEngine(serve.Config{Shards: 2, Workers: 1})
		defer engines[i].Close()
		backends[i] = NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i))
	}
	backends[2] = plainBackend{NewEngineBackend(serve.NewEngine(serve.Config{Workers: 1}), "plain")}
	r, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}

	acks := r.Control(context.Background(), []byte(`{"batch_rate": 48}`))
	if len(acks) != 3 {
		t.Fatalf("got %d acks, want 3", len(acks))
	}
	byName := map[string]ReplicaAck{}
	for _, a := range acks {
		byName[a.Backend] = a
	}
	for i, e := range engines {
		name := fmt.Sprintf("engine[%d]", i)
		if !byName[name].OK {
			t.Errorf("%s: ack not OK: %+v", name, byName[name])
		}
		if got := e.Metrics().Scheduler.BatchRate; got != 48 {
			t.Errorf("%s batch rate = %g, want 48", name, got)
		}
	}
	if a := byName["plain"]; a.OK || a.Error != "unsupported" {
		t.Errorf("non-Controller backend ack: %+v", a)
	}
}

// plainBackend hides EngineBackend's Control method (the embedded field
// is the plain Backend interface), modeling a replica that predates the
// control channel.
type plainBackend struct{ Backend }

// TestControlRetunesThreeNodeHTTPCluster is the acceptance e2e: three
// replicas serving over real HTTP behind the routing front-end, one
// POST /control against the front-end, and every replica's batch rate
// observably retuned — no restarts anywhere.
func TestControlRetunesThreeNodeHTTPCluster(t *testing.T) {
	const n = 3
	engines := make([]*serve.Engine, n)
	backends := make([]Backend, n)
	slos := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		engines[i] = serve.NewEngine(serve.Config{Shards: 2, Workers: 2, BatchRate: 512})
		defer engines[i].Close()
		engines[i].OnSLOChange(func(slo time.Duration) error { slos[i] = slo; return nil })
		srv := httptest.NewServer(engines[i].Handler())
		defer srv.Close()
		backends[i] = NewHTTPBackend(srv.URL)
	}
	r, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	// The cluster is live: requests flow front-end -> HTTP replica.
	resp, err := http.Get(front.URL + "/run/E1")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster not serving: %v (%v)", err, resp)
	}
	resp.Body.Close()

	body := []byte(`{"batch_rate": 96, "slo_ms": 40}`)
	cr, err := http.Post(front.URL+"/control", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /control: %v", err)
	}
	defer cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("POST /control: HTTP %d (fan-out not fully applied)", cr.StatusCode)
	}
	var out struct {
		Replicas []ReplicaAck `json:"replicas"`
	}
	if err := json.NewDecoder(cr.Body).Decode(&out); err != nil {
		t.Fatalf("bad fan-out response: %v", err)
	}
	if len(out.Replicas) != n {
		t.Fatalf("acks for %d replicas, want %d", len(out.Replicas), n)
	}
	for _, a := range out.Replicas {
		if !a.OK {
			t.Errorf("replica %s failed: %s", a.Backend, a.Error)
		}
		var ack serve.ControlAck
		if err := json.Unmarshal([]byte(a.Ack), &ack); err != nil {
			t.Errorf("replica %s: bad ack %q: %v", a.Backend, a.Ack, err)
			continue
		}
		if ack.Applied["batch_rate"] != "96" || ack.Applied["slo_ms"] != "40" {
			t.Errorf("replica %s applied %+v", a.Backend, ack.Applied)
		}
	}
	// The knobs actually moved on every engine, live.
	for i, e := range engines {
		if got := e.Metrics().Scheduler.BatchRate; got != 96 {
			t.Errorf("replica %d batch rate = %g, want 96", i, got)
		}
		if slos[i] != 40*time.Millisecond {
			t.Errorf("replica %d SLO hook got %v, want 40ms", i, slos[i])
		}
	}
	// And the front-end logged the cluster-wide control event.
	var sawControl bool
	for _, ev := range r.Events().Since(0) {
		if ev.Type == obs.EventControl {
			sawControl = true
		}
	}
	if !sawControl {
		t.Error("front-end event ring has no control event")
	}

	// Partial failure surfaces as 207 with per-replica detail: kill one
	// replica's HTTP listener and retune again.
	// (Rebuild the cluster so the dead server is deterministic.)
	dead := httptest.NewServer(engines[0].Handler())
	deadBackend := NewHTTPBackend(dead.URL)
	dead.Close()
	r2, err := New([]Backend{deadBackend, backends[1]}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front2 := httptest.NewServer(r2.Handler())
	defer front2.Close()
	cr2, err := http.Post(front2.URL+"/control", "application/json",
		bytes.NewReader([]byte(`{"batch_rate": 128}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer cr2.Body.Close()
	if cr2.StatusCode != http.StatusMultiStatus {
		t.Fatalf("partial fan-out failure: HTTP %d want 207", cr2.StatusCode)
	}
}

// TestRouterConcurrentScrapeServeControl is the router-side race lane:
// routed serving, /metrics scrapes, and control fan-outs at once.
func TestRouterConcurrentScrapeServeControl(t *testing.T) {
	r, engines := newRegistryCluster(t, 3, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	h := r.Handler()

	const iters = 30
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ctx := admit.WithClass(context.Background(), admit.Interactive)
				_, _ = serveDecoded(ctx, r, fmt.Sprintf("E%d", 1+(g+i)%3), core.Params{})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?since=0", nil))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			body := fmt.Sprintf(`{"batch_rate": %d}`, 100+i)
			acks := r.Control(context.Background(), []byte(body))
			for _, a := range acks {
				if !a.OK {
					t.Errorf("control fan-out: %s: %s", a.Backend, a.Error)
					return
				}
			}
		}
	}()
	wg.Wait()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if problems := obs.Lint(strings.NewReader(rec.Body.String())); len(problems) > 0 {
		t.Fatalf("post-race router scrape not clean:\n  %s", strings.Join(problems, "\n  "))
	}
}

// A body one replica would refuse reaches none of them: the front-end
// refuses it with 400 before fanning out, over an in-process and an HTTP
// replica alike, and each face (engine handler, in-process backend) runs
// the same strict decoder. A "policy" key from an older script is one
// such body.
func TestControlRefusedBodyAppliesNowhere(t *testing.T) {
	local := serve.NewEngine(serve.Config{Shards: 2, Workers: 2, BatchRate: 512})
	defer local.Close()
	remote := serve.NewEngine(serve.Config{Shards: 2, Workers: 2, BatchRate: 512})
	defer remote.Close()
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()
	inproc := NewEngineBackend(local, "local")
	r, err := New([]Backend{inproc, NewHTTPBackend(srv.URL)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	for _, body := range []string{
		`{"batch_rate": 7, "policy": "shared-fifo"}`,
		`{"batch_rate": 7, "bogus": 1}`,
		`{"policy": "strict-priority"}`,
		`{}`,
	} {
		for name, base := range map[string]string{"front-end": front.URL, "engine": srv.URL} {
			resp, err := http.Post(base+"/control", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: %s: HTTP %d, want 400", name, body, resp.StatusCode)
			}
		}
		if _, err := inproc.Control(context.Background(), []byte(body)); err == nil {
			t.Errorf("in-process replica accepted %s", body)
		}
		for name, e := range map[string]*serve.Engine{"local": local, "remote": remote} {
			if got := e.Metrics().Scheduler.BatchRate; got != 512 {
				t.Errorf("%s moved the %s replica's batch rate to %g", body, name, got)
			}
		}
	}
}
