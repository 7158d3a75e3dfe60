package router

// QoS propagation tests: the class and the budget-decremented deadline
// must cross the wire as headers, and deadline sheds must not burn
// failover attempts.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// TestHTTPBackendPropagatesClassAndDeadline pins the envelope contract:
// a frame of one carries the context's class verbatim, its hedge marker,
// and its remaining deadline decremented by the hop budget, so a replica
// works against the caller's residual budget, not a fresh one. A budget
// the hop cannot survive is TestStreamFrameCarriesEnvelopeAndOutcomes's.
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

}

// answerBackend is a live replica that answers every entry of every
// frame with err, counting the entries: a per-entry verdict, which
// FaultBackend's whole-frame faults cannot express.
type answerBackend struct {
	err     error
	entries atomic.Int64
}

func (b *answerBackend) DoBatch(_ context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	b.entries.Add(int64(len(items)))
	outs := getOuts(len(items))
	for i := range outs {
		outs[i].Err = b.err
	}
	return outs, nil
}
func (b *answerBackend) Check() error { return nil }
func (b *answerBackend) Name() string { return "answer" }

// A deadline shed is final: the router does not spend failover attempts
// (the budget is no better on a successor) and does not eject the
// replica that reported it.
func TestRouterDeadlineShedDoesNotFailOver(t *testing.T) {
	testShedNeverEjects(t, true, 1)
}

// A queue-full shed (503-family) fails over — a sibling's queue may have
// room — but never counts toward ejection: a replica shedding by design
// is alive, and ejecting it would dump its keys on the siblings and
// cascade the overload into a blackout.
func TestRouterQueueFullShedFailsOverWithoutEjection(t *testing.T) {
	testShedNeverEjects(t, false, 2)
}

// testShedNeverEjects serves ten requests, well past FailThreshold, on two
// replicas that shed every entry: each takes attempts attempts, each
// attempt past the first a failover, and nobody is ejected.
func testShedNeverEjects(t *testing.T, deadline bool, attempts int64) {
	shed := &admit.ShedError{Class: admit.Interactive, Deadline: deadline, RetryAfter: time.Second}
	bs := []*answerBackend{{err: shed}, {err: shed}}
	r, err := New([]Backend{bs[0], bs[1]}, Config{FailThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := serveDecoded(context.Background(), r, "E1", nil); !errors.Is(err, admit.ErrShed) {
			t.Fatalf("ServeEncoded = %v, want the shed", err)
		}
	}
	m := r.Metrics()
	if total := bs[0].entries.Load() + bs[1].entries.Load(); total != 10*attempts || m.Failovers != 10*(attempts-1) {
		t.Fatalf("%d attempts and %d failovers for 10 requests, want %d attempts each", total, m.Failovers, attempts)
	}
	for _, h := range m.Health {
		if h.Ejected || h.Failures != 0 || h.Ejections != 0 {
			t.Fatalf("sheds drove health accounting: %+v", h)
		}
	}
}

// The routing front-end's HTTP face: QoS headers parse into the routed
// context, the routed envelope carries the class, and /stats counts the
// backends. Bad headers and formats are TestErrorEnvelopeBothFrontEnds's
// and TestRouterFormatRejectionIsEnvelope's.
func TestRouterHandlerQoSFace(t *testing.T) {
	r, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/run/E1", nil)
	req.Header.Set(admit.HeaderClass, "batch")
	rec := httptest.NewRecorder()
	if r.Handler().ServeHTTP(rec, req); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"class": "batch"`) {
		t.Fatalf("routed batch request: status=%d body=%s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	if r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil)); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"backends": 1`) {
		t.Fatalf("front-end stats: %d body=%s", rec.Code, rec.Body)
	}
}

// A remote replica's shed (a 503 entry with a retry hint) keeps its
// backoff hint through the front-end's POST /v1/batch as the entry's
// retry hint (/run's Retry-After is TestRouterPassesThroughUpstreamShedEnvelope's),
// and a deliberate shed is no failure in the replica's health.
func TestRouterHandlerForwardsReplicaRetryAfter(t *testing.T) {
	r, err := New([]Backend{NewHTTPBackend(shedReplica(t, 7*time.Second).URL)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res := postOne(t, r, "E1", nil); res.Status != http.StatusServiceUnavailable || res.RetryAfter != 7*time.Second {
		t.Fatalf("front-end /v1/batch entry %+v, want a 503 with a 7s hint", res)
	}
	for _, h := range r.Metrics().Health {
		if h.Failures != 0 || h.Ejected {
			t.Fatalf("replica 503 shed counted as failure: %+v", h)
		}
	}
}

// EngineBackend accessors and liveness trivia.
func TestEngineBackendAccessors(t *testing.T) {
	b := NewEngineBackend(newTestEngine(t), "engine[7]")
	if b.Check() != nil {
		t.Fatal("in-process engine should always be healthy")
	}
	if b.Name() != "engine[7]" {
		t.Fatalf("Name = %q", b.Name())
	}
}

// Address normalization forms.
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
