package router

// Front-end-side tests of the stream carrier: HTTPBackend.DoBatch over
// the upgraded stream against real engine handlers, the POST fallback,
// cancellation, redial after Engine.Close, a stuck peer, and the
// invariants hammer.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// swapHandler is a replica address whose engine can be replaced.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// noStream is an old replica: every route but /stream.
func noStream(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// gate is a runner that parks IDs prefixed "slow" until released or
// canceled, and records the QoS envelope every execution ran under.
type gate struct {
	release  chan struct{}
	started  atomic.Int64
	canceled atomic.Int64
	seen     sync.Map // id → httpapi.Envelope
}

func (g *gate) run(ctx context.Context, id string, p core.Params) (core.Result, error) {
	env := httpapi.Envelope{Class: admit.ClassFrom(ctx), Tenant: admit.TenantFrom(ctx), Hedge: httpapi.IsHedge(ctx)}
	if dl, ok := ctx.Deadline(); ok {
		env.Deadline = time.Until(dl)
	}
	g.seen.Store(id, env)
	if strings.HasPrefix(id, "slow") {
		g.started.Add(1)
		select {
		case <-g.release:
		case <-ctx.Done():
			g.canceled.Add(1)
			return core.Result{}, ctx.Err()
		}
	}
	if exp, ok := core.ByID(id); ok {
		res, _, err := exp.RunWith(ctx, p)
		return res, err
	}
	return fakeResult(id), nil
}

func newGateEngine(g *gate) *serve.Engine {
	return serve.NewEngine(serve.Config{Shards: 4, Workers: 4, RunnerWith: g.run, Tenants: []string{"tB"}})
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func balanced(e *serve.Engine) bool {
	for _, c := range e.Metrics().Classes {
		if c.Balance() != nil {
			return false
		}
	}
	return true
}

// replicaStatus is the status the one mapping gives err when err carries
// a replica's relayed answer (replicaError's wording), 0 when it carries
// none — an in-process engine's sentinel is not a replica's answer.
func replicaStatus(err error) int {
	var se *httpapi.StatusError
	if !errors.As(err, &se) || !strings.HasPrefix(se.Msg, fmt.Sprintf("HTTP %d: ", se.Status)) {
		return 0
	}
	status, _, _ := httpapi.ErrorStatus(err, http.StatusBadGateway)
	return status
}

// The same items over both carriers give the same outcomes — a frame of
// one carries its whole envelope, a shed entry its retry hint — the stats
// row names the carrier, and a hop-doomed budget never reaches the wire.
func TestStreamAndPostFallbackAgree(t *testing.T) {
	g := &gate{}
	eng := newGateEngine(g)
	defer eng.Close()
	streamSrv := httptest.NewServer(eng.Handler())
	defer streamSrv.Close()
	postSrv := httptest.NewServer(noStream(eng.Handler()))
	defer postSrv.Close()
	overStream, overPost := NewHTTPBackend(streamSrv.URL), NewHTTPBackend(postSrv.URL)

	items := []serve.BatchItem{
		{ID: "E7", Class: admit.Interactive},
		{ID: "E7", Params: core.Params{"f": 0.95}, Class: admit.Batch},
		{ID: "NOPE", Params: core.Params{"x": 1}, Class: admit.Interactive},
		{ID: "E7", Params: core.Params{"f": 7}, Class: admit.Interactive},
	}
	ctx, cancel := context.WithTimeout(admit.WithTenant(context.Background(), "tB"), time.Minute)
	defer cancel()
	for pass := 0; pass < 2; pass++ { // cold, then warm
		a, err := overStream.DoBatch(ctx, items)
		if err != nil {
			t.Fatalf("stream DoBatch: %v", err)
		}
		b, err := overPost.DoBatch(ctx, items)
		if err != nil {
			t.Fatalf("POST DoBatch: %v", err)
		}
		for i := range items {
			ra, rb := a[i].RawResponse, b[i].RawResponse
			if (a[i].Err == nil) != (b[i].Err == nil) || classify(a[i].Err) != classify(b[i].Err) ||
				ra.Key != rb.Key || !bytes.Equal(ra.Raw, rb.Raw) || ra.Class != rb.Class {
				t.Fatalf("pass %d entry %d differs: stream (%v, %q) vs POST (%v, %q)", pass, i, a[i].Err, ra.Key, b[i].Err, rb.Key)
			}
			if pass == 1 && a[i].Err == nil && (!ra.CacheHit || !rb.CacheHit) {
				t.Fatalf("warm pass entry %d not a hit on both carriers", i)
			}
		}
		if replicaStatus(a[2].Err) != http.StatusNotFound || replicaStatus(a[3].Err) != http.StatusBadRequest {
			t.Fatalf("entry errors = %v / %v, want embedded 404 / 400", a[2].Err, a[3].Err)
		}
	}
	if tr, _ := overStream.Carrier(); tr != "stream" {
		t.Fatalf("carrier = %q, want stream", tr)
	}
	if tr, _ := overPost.Carrier(); tr != "http" {
		t.Fatalf("refusing replica's carrier = %q, want http", tr)
	}
	// The replica saw the caller's envelope on the first (stream) miss.
	if v, ok := g.seen.Load("E7"); !ok || v.(httpapi.Envelope).Tenant != "tB" ||
		v.(httpapi.Envelope).Deadline <= 0 || v.(httpapi.Envelope).Deadline > time.Minute-hopBudget {
		t.Fatalf("replica saw envelope %+v, want tenant tB and a hop-decremented deadline", v)
	}
	// A frame of one — what a chain attempt is — carries the same envelope
	// on either carrier: deadline, tenant, and a backup's hedge marker.
	for id, b := range map[string]*HTTPBackend{"oneOverStream": overStream, "oneOverPost": overPost} {
		outs, err := b.DoBatch(httpapi.WithHedge(ctx), []serve.BatchItem{{ID: id, Class: admit.Interactive}})
		if err != nil || outs[0].Err != nil {
			t.Fatalf("%s: frame of one = (%+v, %v)", id, outs, err)
		}
		v, _ := g.seen.Load(id)
		if env, _ := v.(httpapi.Envelope); env.Tenant != "tB" || !env.Hedge || env.Class != admit.Interactive ||
			env.Deadline <= 0 || env.Deadline > time.Minute-hopBudget {
			t.Fatalf("%s: replica saw envelope %+v, want tenant tB, the hedge marker and a hop-decremented deadline", id, env)
		}
	}
	// A shed entry carries its retry hint on either carrier: a one-worker
	// replica with its worker pinned and its one queue slot taken sheds
	// the next cold interactive entry.
	fg := &gate{release: make(chan struct{})}
	full := serve.NewEngine(serve.Config{Shards: 4, Workers: 1, Queue: 1, RunnerWith: fg.run})
	defer full.Close()
	defer close(fg.release) // LIFO: the parked runs leave before Close drains
	fullStream := httptest.NewServer(full.Handler())
	defer fullStream.Close()
	fullPost := httptest.NewServer(noStream(full.Handler()))
	defer fullPost.Close()
	fillQueues(t, fg, full)
	for name, b := range map[string]*HTTPBackend{"stream": NewHTTPBackend(fullStream.URL), "POST": NewHTTPBackend(fullPost.URL)} {
		outs, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "shed", Class: admit.Interactive}})
		if err != nil {
			t.Fatalf("%s: DoBatch: %v", name, err)
		}
		_, _, retryAfter := httpapi.ErrorStatus(outs[0].Err, http.StatusBadGateway)
		if replicaStatus(outs[0].Err) != http.StatusServiceUnavailable || retryAfter <= 0 ||
			classify(outs[0].Err) != verdictFailover {
			t.Fatalf("%s: shed entry = (%+v, %v), want a 503 entry with a retry hint", name, outs, err)
		}
	}

	r, err := New([]Backend{overStream, overPost}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var m Metrics
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Health[0].Transport != "stream" || m.Health[1].Transport != "http" {
		t.Fatalf("/stats transports = %q, %q", m.Health[0].Transport, m.Health[1].Transport)
	}

	before := eng.Metrics().Requests
	doomed, cancelDoomed := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelDoomed()
	var shed *admit.ShedError
	for _, b := range []*HTTPBackend{overStream, overPost} {
		if _, err := b.DoBatch(doomed, items[:1]); !errors.As(err, &shed) || !shed.Deadline {
			t.Fatalf("hop-doomed DoBatch = %v, want a deadline shed", err)
		}
	}
	if after := eng.Metrics().Requests; after != before {
		t.Fatalf("hop-doomed frames reached the replica: %d → %d requests", before, after)
	}
}

// (e) A caller that gives up sends cancel: the replica's runner sees its
// context end, and the connection stays up for the next frame.
func TestStreamCancelKeepsConnection(t *testing.T) {
	g := &gate{release: make(chan struct{})}
	eng := newGateEngine(g)
	defer eng.Close()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	b := NewHTTPBackend(srv.URL)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.DoBatch(ctx, []serve.BatchItem{{ID: "slow-1"}})
		done <- err
	}()
	eventually(t, "the slow run to start", func() bool { return g.started.Load() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled DoBatch = %v, want context.Canceled", err)
	}
	eventually(t, "the replica's runner to see the cancel", func() bool { return g.canceled.Load() == 1 })
	outs, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "K"}})
	if err != nil || outs[0].Err != nil {
		t.Fatalf("DoBatch after a cancel: %v / %v", err, outs)
	}
	if _, redials := b.Carrier(); redials != 0 {
		t.Fatalf("cancel cost %d redials, want the same connection", redials)
	}
}

// (f) Engine.Close mid-flight fails the waiter with a transport error,
// the next DoBatch redials; an upgrade answered 500 is a transport
// failure too and is not remembered as "HTTP only".
func TestStreamEngineCloseFailsWaitersAndRedials(t *testing.T) {
	g := &gate{release: make(chan struct{})}
	first := newGateEngine(g)
	replica := &swapHandler{}
	replica.set(first.Handler())
	srv := httptest.NewServer(replica)
	defer srv.Close()
	b := NewHTTPBackend(srv.URL)

	done := make(chan error, 1)
	go func() {
		_, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "slow-1"}})
		done <- err
	}()
	eventually(t, "the slow run to start", func() bool { return g.started.Load() == 1 })
	first.Close()
	err := <-done
	if err == nil || classify(err) != verdictFailure {
		t.Fatalf("DoBatch across Engine.Close = %v (verdict %d), want a transport failure", err, classify(err))
	}

	var fail atomic.Bool
	fail.Store(true)
	second := newGateEngine(&gate{})
	defer second.Close()
	h := second.Handler()
	replica.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if fail.Load() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}))
	if _, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "K"}}); err == nil || classify(err) != verdictFailure {
		t.Fatalf("DoBatch against a 500 upgrade = %v, want a transport failure", err)
	}
	if tr, _ := b.Carrier(); tr != "stream" {
		t.Fatalf("a 500 upgrade was remembered as %q", tr)
	}
	fail.Store(false)
	outs, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "K"}})
	if err != nil || outs[0].Err != nil {
		t.Fatalf("DoBatch after the replica came back: %v / %v", err, outs)
	}
	if tr, redials := b.Carrier(); tr != "stream" || redials != 1 {
		t.Fatalf("carrier = (%q, %d redials), want (stream, 1)", tr, redials)
	}
}

// (c) A peer that stops reading cannot hold the write lock past the
// callers' deadline: the blocked write fails, the connection dies, and
// every waiter — written or still queued for the lock — fails once.
func TestStreamStuckPeerWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns sync.WaitGroup
	stop := make(chan struct{})
	defer func() { close(stop); conns.Wait() }()
	go func() { // upgrades every connection, then never reads it
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conns.Done()
				defer c.Close()
				if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				_, _ = io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+httpapi.StreamProtocol+"\r\n\r\n")
				<-stop
			}()
		}
	}()
	b := NewHTTPBackend("http://" + ln.Addr().String())
	big := []serve.BatchItem{{ID: strings.Repeat("x", 6<<20)}} // a few of these fill the socket buffers
	const callers = 6
	errs := make(chan error, callers)
	t0 := time.Now()
	for i := 0; i < callers; i++ {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			_, err := b.DoBatch(ctx, big)
			errs <- err
		}()
	}
	for i := 0; i < callers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("DoBatch against a peer that never reads succeeded")
		}
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("callers were held %v behind a stuck peer", d)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _ = b.DoBatch(ctx, []serve.BatchItem{{ID: "K"}})
	if _, redials := b.Carrier(); redials != 1 {
		t.Fatalf("%d redials after the stuck connection was killed, want 1", redials)
	}
}

// The invariants hammer: routed /run, /batch and sweep traffic through
// a front-end over three HTTP replicas while one replica's engine is
// closed and replaced. Every call gets exactly its own answer, every
// engine's books balance per class, /batch callers' envelopes reach the
// runner as Forward would have sent them, and no goroutine outlives the
// engines. Run under -race.
func TestStreamInvariantsUnderReplicaReplacement(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	g := &gate{}
	engines := make([]*serve.Engine, 3, 4)
	replicas := make([]*swapHandler, 3)
	servers := make([]*httptest.Server, 3)
	backends := make([]Backend, 3)
	for i := range servers {
		engines[i] = newGateEngine(g)
		replicas[i] = &swapHandler{}
		replicas[i].set(engines[i].Handler())
		servers[i] = httptest.NewServer(replicas[i])
		backends[i] = NewHTTPBackend(servers[i].URL)
	}
	r, err := New(backends, Config{ProbeAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", r.Handler())
	httpapi.Mount(mux, "POST /sweep", sweep.Handler(r))
	front := httptest.NewServer(mux)
	tr := &http.Transport{MaxIdleConnsPerHost: 16}
	client := &http.Client{Transport: tr, Timeout: time.Minute}

	get := func(id, class string) {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/v1/run/"+id, nil)
		req.Header.Set(admit.HeaderClass, class)
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("GET %s: %v", id, err)
			return
		}
		defer resp.Body.Close()
		var env struct {
			ID       string   `json:"id"`
			Key      string   `json:"key"`
			Class    string   `json:"class"`
			Findings []string `json:"findings"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d, %v", id, resp.StatusCode, err)
			return
		}
		if env.ID != id || env.Key != id || env.Class != class || len(env.Findings) != 1 || env.Findings[0] != "finding for "+id {
			t.Errorf("GET %s answered with %+v", id, env)
		}
	}
	post := func(worker, round int) {
		entries := make([]httpapi.BatchEntry, 16)
		for i := range entries {
			entries[i] = httpapi.BatchEntry{ID: fmt.Sprintf("B-%d", (worker*7+round+i)%40), Class: admit.Class(i % 2)}
		}
		req, _ := http.NewRequest(http.MethodPost, front.URL+"/v1/batch", bytes.NewReader(httpapi.AppendBatchRequest(nil, entries)))
		req.Header.Set(admit.HeaderClass, "batch")
		req.Header.Set(admit.HeaderTenant, "tB")
		req.Header.Set(admit.HeaderDeadlineMS, "30000")
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("POST /batch: %v", err)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		results, err := httpapi.DecodeBatchResponse(body)
		if err != nil || len(results) != len(entries) {
			t.Errorf("POST /batch: status %d, %d results, %v", resp.StatusCode, len(results), err)
			return
		}
		for i, res := range results {
			if !res.OK || res.Key != entries[i].ID {
				t.Errorf("/batch entry %s answered (%v, %q, %d %s)", entries[i].ID, res.OK, res.Key, res.Status, res.Msg)
			}
		}
	}
	sweepOnce := func(round int) {
		body, _ := json.Marshal(sweep.Request{ID: "E7", Params: []string{
			fmt.Sprintf("f=0.9%d", round%10), "bces=16,32,64,128,256,512,1024,2048"}})
		resp, err := client.Post(front.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("POST /sweep: %v", err)
			return
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if n := bytes.Count(out, []byte(`"point"`)); resp.StatusCode != http.StatusOK || n != 8 {
			t.Errorf("sweep round %d: status %d, %d point lines, want 8", round, resp.StatusCode, n)
		}
	}

	const rounds = 60
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			class := admit.Class(w % 2).String()
			for i := 0; i < rounds; i++ {
				get(fmt.Sprintf("K-%s-%d", class, (w+i)%24), class)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds/2; i++ {
				post(w, i)
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/6; i++ {
			sweepOnce(i)
		}
	}()
	go func() { // replace replica 1's engine mid-run
		defer wg.Done()
		eventually(t, "traffic to reach replica 1", func() bool { return engines[1].Metrics().Requests > 20 })
		engines[1].Close()
		fresh := newGateEngine(g)
		engines = append(engines, fresh)
		replicas[1].set(fresh.Handler())
	}()
	wg.Wait()

	m := r.Metrics()
	if m.Exhausted != 0 {
		t.Errorf("%d requests exhausted every replica", m.Exhausted)
	}
	_, redials := backends[1].(*HTTPBackend).Carrier()
	t.Logf("%d requests, %d batched, %d failovers, replica 1: %d failures, %d stream redials",
		m.Requests, r.batched.Load(), m.Failovers, m.Health[1].Failures, redials)
	for i, e := range engines {
		eventually(t, fmt.Sprintf("engine %d's books to balance", i), func() bool { return balanced(e) })
	}
	g.seen.Range(func(k, v any) bool {
		if id, env := k.(string), v.(httpapi.Envelope); strings.HasPrefix(id, "B-") {
			// A failed-over entry reruns on the chain under the same
			// caller context, so every execution carries the envelope.
			if env.Tenant != "tB" || env.Hedge || env.Deadline <= 0 || env.Deadline > 30*time.Second-hopBudget {
				t.Errorf("/batch entry %s ran under %+v, want tenant tB, no hedge, a deadline under 30s less the hop", id, env)
			}
		}
		return true
	})

	front.Close()
	tr.CloseIdleConnections()
	for _, s := range servers {
		s.Close()
	}
	for _, e := range engines {
		e.Close()
	}
	eventually(t, "goroutines to drain", func() bool { return runtime.NumGoroutine() <= goroutines+2 })
}

// routedEnvelope is the struct the front-end's /run/{id} used to marshal
// through httpapi.WriteJSON — the byte-identity reference for
// serve.AppendRoutedEnvelope.
type routedEnvelope struct {
	ID        string      `json:"id"`
	Params    core.Params `json:"params,omitempty"`
	Key       string      `json:"key,omitempty"`
	Class     string      `json:"class"`
	CacheHit  bool        `json:"cache_hit"`
	Shared    bool        `json:"shared"`
	LatencyMS float64     `json:"latency_ms"`
	Headline  *float64    `json:"headline,omitempty"`
	Findings  []string    `json:"findings,omitempty"`
}

// The hand-written front-end envelope is byte-identical to the reflected
// one for every registry experiment (defaults and a parameterized
// point) and for strings that need escaping; a headline JSON cannot
// carry answers 500 in the error envelope, not 200 with an empty body.
func TestRoutedEnvelopeBytesAndNaNHeadline(t *testing.T) {
	nan := math.NaN()
	tiny := 1e-7
	odd := map[string]core.Result{
		"odd-escapes": {Headline: &tiny, Findings: []string{`<a href="x">&</a>`, "tab\there", "bad \xff utf8", "sep   arator", "speedup ×3 → 12 µs"}},
		"odd-empty":   {},
		"odd-nan":     {Headline: &nan, Findings: []string{"not a number"}},
	}
	// ran is the result the engine's one execution per key produced (some
	// experiments measure real contention and differ run to run).
	var ran atomic.Pointer[core.Result]
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2,
		RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
			res, ok := odd[id]
			if !ok {
				exp, _ := core.ByID(id)
				var err error
				if res, _, err = exp.RunWith(ctx, p); err != nil {
					return res, err
				}
			}
			ran.Store(&res)
			return res, nil
		}})
	defer eng.Close()
	r, err := New([]Backend{NewEngineBackend(eng, "engine[0]")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := r.Handler()
	check := func(url string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // miss, then hit
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
			}
			// The per-request fields come from the reply; headline and
			// findings from the result it must carry.
			var ref routedEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
				t.Fatalf("%s: %v", url, err)
			}
			ref.Headline, ref.Findings = ran.Load().Headline, ran.Load().Findings
			want := httptest.NewRecorder()
			httpapi.WriteJSON(want, http.StatusOK, ref)
			if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				t.Fatalf("%s pass %d: envelope differs from the reflected encoding\n got: %s\nwant: %s", url, pass, rec.Body, want.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != want.Header().Get("Content-Type") {
				t.Fatalf("%s: content type %q", url, ct)
			}
			if ref.CacheHit != (pass == 1) {
				t.Fatalf("%s pass %d: cache_hit %v", url, pass, ref.CacheHit)
			}
		}
	}
	for _, exp := range core.Registry() {
		if exp.ID == "E3" || exp.ID == "E21" { // seconds per cold run
			continue
		}
		check("/v1/run/" + exp.ID)
	}
	check("/v1/run/E7?param=f=0.95&param=bces=64")
	check("/v1/run/odd-escapes")
	check("/v1/run/odd-empty")

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/run/odd-nan", nil))
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); rec.Code != http.StatusInternalServerError || err != nil || env.Error.Code != httpapi.CodeInternal {
		t.Fatalf("NaN headline answered %d %q (%v), want 500 in the error envelope", rec.Code, rec.Body, err)
	}
}
