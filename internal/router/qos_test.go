package router

// QoS propagation tests: the class and the budget-decremented deadline
// must cross the wire as headers, and deadline sheds must not burn
// failover attempts.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// TestHTTPBackendPropagatesClassAndDeadline pins the envelope contract:
// a frame of one carries the context's class verbatim, its hedge marker,
// and its remaining deadline decremented by the hop budget, so a replica
// works against the caller's residual budget, not a fresh one.
func TestHTTPBackendPropagatesClassAndDeadline(t *testing.T) {
	g := &gate{}
	eng := newGateEngine(g)
	defer eng.Close()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	b := NewHTTPBackend(srv.URL)
	budget := 500 * time.Millisecond
	ctx, cancel := context.WithTimeout(
		httpapi.WithHedge(admit.WithClass(context.Background(), admit.Batch)), budget)
	resp, err := b.Do(ctx, "viaStream", nil)
	cancel()
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Class != admit.Batch {
		t.Fatalf("response class = %v, want batch", resp.Class)
	}
	v, _ := g.seen.Load("viaStream") // the cold run's own context
	env, _ := v.(httpapi.Envelope)
	if env.Class != admit.Batch || !env.Hedge {
		t.Fatalf("replica saw envelope %+v, want class batch and the hedge marker", env)
	}
	// The forwarded budget must be less than the original (decremented by
	// the hop) but still most of it.
	if env.Deadline >= budget || env.Deadline < budget/2 {
		t.Fatalf("forwarded budget %v not a decremented share of %v", env.Deadline, budget)
	}

	// A budget that cannot survive the hop is shed at the front-end
	// without a wire round trip.
	tiny, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	time.Sleep(2 * time.Millisecond) // ensure it is already unmeetable
	_, err = b.Do(tiny, "E1", nil)
	if err == nil {
		t.Fatal("hop-doomed budget was forwarded instead of shed")
	}
	var shed *admit.ShedError
	if !errors.As(err, &shed) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hop-doomed Do = %v, want ShedError or DeadlineExceeded", err)
	}
}

// A deadline shed from an in-process backend is final: the router does
// not spend failover attempts (the budget is no better on a successor)
// and does not eject the replica that reported it.
func TestRouterDeadlineShedDoesNotFailOver(t *testing.T) {
	var calls [2]atomic.Int64
	mk := func(i int) Backend {
		return backendFunc{
			do: func(ctx context.Context, id string, p core.Params) (serve.Response, error) {
				calls[i].Add(1)
				return serve.Response{}, &admit.ShedError{Class: admit.ClassFrom(ctx), Deadline: true, RetryAfter: time.Second}
			},
			name: "shedding",
		}
	}
	r, err := New([]Backend{mk(0), mk(1)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = serveDecoded(context.Background(), r, "E1", nil)
	if !errors.Is(err, admit.ErrShed) {
		t.Fatalf("ServeWith = %v, want the shed error", err)
	}
	if total := calls[0].Load() + calls[1].Load(); total != 1 {
		t.Fatalf("deadline shed burned %d attempts, want 1", total)
	}
	m := r.Metrics()
	if m.Failovers != 0 {
		t.Fatalf("deadline shed triggered %d failovers", m.Failovers)
	}
	for _, h := range m.Health {
		if h.Ejected || h.Failures != 0 {
			t.Fatalf("deadline shed counted as replica failure: %+v", h)
		}
	}
}

// backendFunc adapts closures to the Backend interface.
type backendFunc struct {
	do   func(ctx context.Context, id string, p core.Params) (serve.Response, error)
	name string
}

func (b backendFunc) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	return perRequest(b.do).DoBatch(ctx, items)
}
func (b backendFunc) Check() error { return nil }
func (b backendFunc) Name() string { return b.name }

// A queue-full shed (503-family) fails over — a sibling's queue may have
// room — but never counts toward ejection: a replica shedding by design
// is alive, and ejecting it would dump its keys on the siblings and
// cascade the overload into a blackout.
func TestRouterQueueFullShedFailsOverWithoutEjection(t *testing.T) {
	var calls [2]atomic.Int64
	shedding := func(i int) Backend {
		return backendFunc{
			do: func(ctx context.Context, id string, p core.Params) (serve.Response, error) {
				calls[i].Add(1)
				return serve.Response{}, &admit.ShedError{Class: admit.ClassFrom(ctx), RetryAfter: time.Second}
			},
			name: "overloaded",
		}
	}
	r, err := New([]Backend{shedding(0), shedding(1)}, Config{FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer well past FailThreshold: every attempt sheds, the request
	// fails over once, and NOBODY gets ejected.
	for i := 0; i < 10; i++ {
		_, err := serveDecoded(context.Background(), r, "E1", nil)
		if !errors.Is(err, admit.ErrShed) {
			t.Fatalf("ServeWith = %v, want wrapped shed", err)
		}
	}
	m := r.Metrics()
	if m.Failovers == 0 {
		t.Fatal("queue-full sheds should fail over to the sibling")
	}
	for _, h := range m.Health {
		if h.Ejected || h.Failures != 0 || h.Ejections != 0 {
			t.Fatalf("queue-full sheds drove health accounting: %+v", h)
		}
	}
}

// The routing front-end's HTTP face: QoS headers parse into the routed
// context, the routed envelope carries the class, bad headers 400,
// non-JSON formats are refused, and a replica's Retry-After survives the
// front-end hop.
func TestRouterHandlerQoSFace(t *testing.T) {
	eng := newTestEngine(t)
	r, err := New([]Backend{NewEngineBackend(eng, "engine[0]")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	get := func(path string, hdr map[string]string) (*http.Response, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, front.URL+path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		_, _ = io.Copy(&sb, resp.Body)
		return resp, sb.String()
	}

	if resp, body := get("/run/E1", map[string]string{admit.HeaderClass: "batch"}); resp.StatusCode != http.StatusOK ||
		!strings.Contains(body, `"class": "batch"`) {
		t.Fatalf("routed batch request: status=%d body=%s", resp.StatusCode, body)
	}
	if resp, _ := get("/run/E1", map[string]string{admit.HeaderClass: "bulk"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad class header through front-end: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("/run/E1", map[string]string{admit.HeaderDeadlineMS: "-5"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad deadline header through front-end: %d, want 400", resp.StatusCode)
	}
	if resp, _ := get("/run/E1?format=text", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("format=text through front-end: %d, want 400 with replica pointer", resp.StatusCode)
	}
	if resp, _ := get("/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("front-end healthz: %d", resp.StatusCode)
	}
	if resp, body := get("/experiments", nil); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"id": "E1"`) {
		t.Fatalf("front-end experiments: %d", resp.StatusCode)
	}
	if resp, body := get("/stats", nil); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"backends": 1`) {
		t.Fatalf("front-end stats: %d body=%s", resp.StatusCode, body)
	}
}

// A remote replica's shed (a 503 entry with a retry hint) keeps its
// backoff hint through the front-end: the relayed answer (replicaError)
// carries it, /run re-emits it as Retry-After and /batch as the entry's
// retry hint.
func TestRouterHandlerForwardsReplicaRetryAfter(t *testing.T) {
	replica := shedReplica(t, 7*time.Second)
	r, err := New([]Backend{NewHTTPBackend(replica.URL)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	resp, err := front.Client().Get(front.URL + "/run/E1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("front-end status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After through front-end = %q, want 7", got)
	}
	// The same shed as a POST /v1/batch entry keeps the hint in the frame.
	frame := httpapi.AppendBatchRequest(nil, []httpapi.BatchEntry{{ID: "E1", Class: admit.Interactive}})
	bresp, err := front.Client().Post(front.URL+"/v1/batch", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	body, _ := io.ReadAll(bresp.Body)
	res, err := httpapi.DecodeBatchResponse(body)
	if err != nil || len(res) != 1 || res[0].Status != http.StatusServiceUnavailable || res[0].RetryAfter != 7*time.Second {
		t.Fatalf("front-end /v1/batch: %d %+v (%v), want one 503 entry with a 7s hint", bresp.StatusCode, res, err)
	}
	// And the shedding replica was not marked failed into ejection-land
	// by its deliberate 503s... it does fail over (one retry against the
	// same single backend chain yields one attempt), but health failures
	// stay zero.
	for _, h := range r.Metrics().Health {
		if h.Failures != 0 || h.Ejected {
			t.Fatalf("replica 503 shed counted as failure: %+v", h)
		}
	}
}

// EngineBackend accessors and liveness trivia.
func TestEngineBackendAccessors(t *testing.T) {
	eng := newTestEngine(t)
	b := NewEngineBackend(eng, "engine[7]")
	if b.Check() != nil {
		t.Fatal("in-process engine should always be healthy")
	}
	if b.Engine() != eng {
		t.Fatal("Engine() should expose the wrapped engine")
	}
	if b.Name() != "engine[7]" {
		t.Fatalf("Name = %q", b.Name())
	}
}

// Pool.Workers and address normalization forms.
func TestHTTPBackendAddressForms(t *testing.T) {
	for addr, want := range map[string]string{
		":8022":                  "http://localhost:8022",
		"host:8022":              "http://host:8022",
		"http://host:8022/":      "http://host:8022",
		"https://example.com/x/": "https://example.com/x",
	} {
		if got := NewHTTPBackend(addr).Name(); got != want {
			t.Fatalf("NewHTTPBackend(%q).Name() = %q, want %q", addr, got, want)
		}
	}
}
