package router

// Front-end-side tests of the stream carrier: HTTPBackend.DoBatch over
// the upgraded stream against real engine handlers and fake stream
// replicas, the refusal rule (an upgrade answered anything but 101 is a
// transport failure), cancellation, redial after Engine.Close, a stuck
// peer, and the invariants hammer.

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

// fakeStreamReplica is a replica that upgrades GET /v1/stream and
// answers each request frame, in arrival order, with answer's results
// for its entries; /healthz answers 200, any other route 404. Its
// connections close with the test.
func fakeStreamReplica(t *testing.T, answer func(entries []httpapi.BatchEntry) []httpapi.BatchResult) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	var conns []net.Conn
	closed := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			return
		case "/v1/stream":
		default:
			http.NotFound(w, r)
			return
		}
		conn, brw, err := w.(http.Hijacker).Hijack()
		if err != nil {
			return
		}
		mu.Lock()
		if closed {
			mu.Unlock()
			_ = conn.Close()
			return
		}
		conns = append(conns, conn)
		mu.Unlock()
		_, _ = io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+httpapi.StreamProtocol+"\r\n\r\n")
		for {
			id, kind, body, err := httpapi.ReadStreamMessage(brw.Reader, httpapi.MaxBatchBytes, func() *[]byte { return new([]byte) })
			if err != nil {
				return
			}
			if kind != httpapi.StreamRequest {
				continue // a cancel: every answer here is immediate
			}
			_, frame, err := httpapi.ParseStreamRequest(*body)
			var entries []httpapi.BatchEntry
			if err == nil {
				entries, err = httpapi.DecodeBatchRequest(frame)
			}
			if err != nil {
				t.Errorf("fake replica got a bad request: %v", err)
				return
			}
			msg := httpapi.AppendBatchResponse(make([]byte, httpapi.StreamHeaderLen), answer(entries))
			httpapi.PutStreamHeader(msg, id, httpapi.StreamReply)
			if _, err := conn.Write(msg); err != nil {
				return
			}
		}
	}))
	t.Cleanup(func() {
		srv.Close()
		mu.Lock()
		defer mu.Unlock()
		closed = true
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return srv
}

// gate is a runner that parks IDs prefixed "slow" until released or
// canceled, and records the QoS envelope every execution ran under.
type gate struct {
	release  chan struct{}
	started  atomic.Int64
	canceled atomic.Int64
	seen     sync.Map // identity key → httpapi.Envelope
}

func (g *gate) run(ctx context.Context, id string, p core.Params) (core.Result, error) {
	env := httpapi.Envelope{Class: admit.ClassFrom(ctx), Tenant: admit.TenantFrom(ctx), Hedge: httpapi.IsHedge(ctx)}
	if dl, ok := ctx.Deadline(); ok {
		env.Deadline = time.Until(dl)
	}
	g.seen.Store(serve.IdentOf(id, p).Key(), env)
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

// What a stream exchange carries besides what the conformance suite
// holds every frame server to: a shed entry's retry hint comes back, the
// /stats rows name no transport, and a hop-doomed budget never reaches
// the wire.
func TestStreamFrameCarriesEnvelopeAndOutcomes(t *testing.T) {
	eng := newGateEngine(&gate{})
	defer eng.Close()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	b := NewHTTPBackend(srv.URL)

	// A shed entry carries its retry hint: a one-worker replica with its
	// worker pinned and its one queue slot taken sheds the next cold
	// interactive entry.
	fg := &gate{release: make(chan struct{})}
	full := serve.NewEngine(serve.Config{Shards: 4, Workers: 1, Queue: 1, RunnerWith: fg.run})
	defer full.Close()
	defer close(fg.release) // LIFO: the parked runs leave before Close drains
	fullSrv := httptest.NewServer(full.Handler())
	defer fullSrv.Close()
	fillQueues(t, fg, full)
	outs, err := NewHTTPBackend(fullSrv.URL).DoBatch(context.Background(), []serve.BatchItem{{ID: "shed", Class: admit.Interactive}})
	if err != nil {
		t.Fatalf("DoBatch to a full replica: %v", err)
	}
	if _, _, retryAfter := httpapi.ErrorStatus(outs[0].Err, http.StatusBadGateway); replicaStatus(outs[0].Err) != http.StatusServiceUnavailable ||
		retryAfter <= 0 || classify(outs[0].Err) != verdictFailover {
		t.Fatalf("shed entry = %v, want a 503 entry with a retry hint", outs[0].Err)
	}

	r, err := New([]Backend{b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var m struct {
		Health []map[string]any `json:"health"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || len(m.Health) != 1 {
		t.Fatalf("/stats: %v\n%s", err, rec.Body)
	}
	if _, ok := m.Health[0]["transport"]; ok {
		t.Fatalf("/stats row names a transport: %v", m.Health[0])
	}

	before := eng.Metrics().Requests
	doomed, cancelDoomed := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancelDoomed()
	var shed *admit.ShedError
	if _, err := b.Do(doomed, "E7", nil); !errors.As(err, &shed) || !shed.Deadline {
		t.Fatalf("hop-doomed Do = %v, want a deadline shed", err)
	}
	if after := eng.Metrics().Requests; after != before {
		t.Fatalf("hop-doomed frame reached the replica: %d → %d requests", before, after)
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
	if redials := b.Redials(); redials != 0 {
		t.Fatalf("cancel cost %d redials, want the same connection", redials)
	}
}

// (f) Engine.Close mid-flight fails the waiter with a transport error,
// the next DoBatch redials; an upgrade answered 500 is a transport
// failure too, not the replica's status relayed, and the next DoBatch
// dials again.
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
	if _, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "K"}}); err == nil ||
		classify(err) != verdictFailure || replicaStatus(err) != 0 {
		t.Fatalf("DoBatch against a 500 upgrade = %v, want a transport failure", err)
	}
	fail.Store(false)
	outs, err := b.DoBatch(context.Background(), []serve.BatchItem{{ID: "K"}})
	if err != nil || outs[0].Err != nil {
		t.Fatalf("DoBatch after the replica came back: %v / %v", err, outs)
	}
	if redials := b.Redials(); redials != 1 {
		t.Fatalf("%d redials, want 1", redials)
	}
}

// The one-carrier rule: a peer that answers the upgrade anything but
// 101 (404, 426, 503 alike) is a transport failure, not the peer's
// status relayed. Its requests and /v1/batch entries fail over to the
// successor and it is ejected after FailThreshold; a client whose every
// candidate refused sees 502, never the peer's status; and an https://
// base fails without a dial, with an error that names the scheme.
func TestRefusedUpgradeFailsOverAndEjects(t *testing.T) {
	refuser := func(status int) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				httpapi.WriteError(w, status, httpapi.CodeForStatus(status), "no stream here")
			}
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	good := httptest.NewServer(newTestEngine(t).Handler())
	defer good.Close()
	now := time.Unix(1000, 0) // frozen: an ejected peer is never probed back in
	get := func(r *Router, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for _, status := range []int{http.StatusNotFound, http.StatusUpgradeRequired, http.StatusServiceUnavailable} {
		r, err := New([]Backend{NewHTTPBackend(refuser(status)), NewHTTPBackend(good.URL)},
			Config{FailThreshold: 3, DisableHedge: true, now: func() time.Time { return now }})
		if err != nil {
			t.Fatal(err)
		}
		// Every request goes to a key the refuser owns, alternating the
		// /v1/run and /v1/batch lanes; each costs it at least one failure.
		for i, n := 0, 0; n < 2*3; i++ {
			id := fmt.Sprintf("R%d", i)
			if ownerOf(r, id, nil) != 0 {
				continue
			}
			if n++; n%2 == 1 {
				if rec := get(r, "/v1/run/"+id); rec.Code != http.StatusOK {
					t.Fatalf("upgrade %d: /v1/run/%s = %d, want the successor's 200\n%s", status, id, rec.Code, rec.Body)
				}
			} else if res := postOne(t, r, id, nil); !res.OK || res.Key != id {
				t.Fatalf("upgrade %d: /v1/batch entry %s = %+v, want the successor's answer", status, id, res)
			}
		}
		m := r.Metrics()
		if h := m.Health[0]; !h.Ejected || h.Failures < 3 || m.Failovers == 0 || m.Exhausted != 0 {
			t.Fatalf("upgrade %d: refuser %+v, %d failovers, %d exhausted; want it ejected after 3 failures",
				status, h, m.Failovers, m.Exhausted)
		}
	}

	only := func() *Router {
		r, err := New([]Backend{NewHTTPBackend(refuser(http.StatusNotFound)), NewHTTPBackend(refuser(http.StatusUpgradeRequired))},
			Config{DisableHedge: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	rec := get(only(), "/v1/run/E7")
	if env := decodeEnvelope(t, rec); rec.Code != http.StatusBadGateway || env.Code != httpapi.CodeUpstream ||
		rec.Header().Get("Retry-After") != "" {
		t.Fatalf("every candidate refusing: %d %+v, want a 502 envelope", rec.Code, env)
	}
	if res := postOne(t, only(), "E7", nil); res.OK || res.Status != http.StatusBadGateway {
		t.Fatalf("every candidate refusing, /v1/batch entry = %+v, want 502", res)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan string, 16) // the remote address of every dial, in order
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c.RemoteAddr().String()
			_ = c.Close()
		}
	}()
	defer ln.Close()
	_, err = NewHTTPBackend("https://"+ln.Addr().String()).DoBatch(context.Background(), []serve.BatchItem{{ID: "E7"}})
	if err == nil || !strings.Contains(err.Error(), "not https://") || classify(err) != verdictFailure || replicaStatus(err) != 0 {
		t.Fatalf("https:// base: DoBatch = %v, want a transport failure naming the scheme", err)
	}
	// A sentinel dial: accepted in order, it is the first unless the
	// backend dialled.
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if first := <-accepted; first != c.LocalAddr().String() {
		t.Fatalf("https:// base dialled the replica (from %s)", first)
	}
}

// (c) A peer that stops reading cannot hold the write lock past the
// callers' patience, a deadline or a plain cancel: the blocked write
// fails, the connection dies, and every waiter — written or still queued
// for the lock — fails once. And a caller whose request is written before
// the peer stops reading returns at once when canceled: the cancel
// message it owes the peer does not wait for the wedged write.
func TestStreamStuckPeerWriteDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns sync.WaitGroup
	stop := make(chan struct{})
	defer func() { close(stop); conns.Wait() }()
	var readFirst atomic.Bool // the peer reads one message before it stops
	read := make(chan struct{}, 1)
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
				br := bufio.NewReader(c)
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				_, _ = io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+httpapi.StreamProtocol+"\r\n\r\n")
				if readFirst.Load() {
					if _, _, in, err := httpapi.ReadStreamMessage(br, httpapi.MaxBatchBytes, httpapi.GetBuffer); err == nil {
						httpapi.PutBuffer(in)
						read <- struct{}{}
					}
				}
				<-stop
			}()
		}
	}()
	const patience = 300 * time.Millisecond
	for _, row := range []struct {
		name string
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"deadline", func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), patience)
		}},
		{"cancel", func() (context.Context, context.CancelFunc) {
			ctx, cancel := context.WithCancel(context.Background())
			time.AfterFunc(patience, cancel)
			return ctx, cancel
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			b := NewHTTPBackend("http://" + ln.Addr().String())
			big := []serve.BatchItem{{ID: strings.Repeat("x", 6<<20)}} // a few of these fill the socket buffers
			const callers = 6
			errs := make(chan error, callers)
			t0 := time.Now()
			for i := 0; i < callers; i++ {
				go func() {
					ctx, cancel := row.ctx()
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
			if redials := b.Redials(); redials != 1 {
				t.Fatalf("%d redials after the stuck connection was killed, want 1", redials)
			}
		})
	}
	t.Run("cancel-after-write", func(t *testing.T) {
		readFirst.Store(true)
		b := NewHTTPBackend("http://" + ln.Addr().String())
		ctx, cancel := context.WithCancel(context.Background())
		small := make(chan error, 1)
		go func() {
			_, err := b.DoBatch(ctx, []serve.BatchItem{{ID: "K"}})
			small <- err
		}()
		<-read // the request is written and read; the peer reads no more
		bigCtx, bigCancel := context.WithTimeout(context.Background(), 10*time.Second)
		bigDone := make(chan error, 1)
		go func() { // fills the socket buffers and holds the write lock
			_, err := b.DoBatch(bigCtx, []serve.BatchItem{{ID: strings.Repeat("x", 16<<20)}})
			bigDone <- err
		}()
		time.Sleep(200 * time.Millisecond)
		t0 := time.Now()
		cancel()
		err := <-small
		if d := time.Since(t0); d > 100*time.Millisecond {
			t.Errorf("a canceled caller was held %v behind a stuck peer", d)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled DoBatch = %v, want context.Canceled", err)
		}
		bigCancel()
		if err := <-bigDone; err == nil {
			t.Error("DoBatch against a peer that never reads succeeded")
		}
	})
}

// A replica that accepts the connection but never answers the upgrade
// holds no caller past its context, the one dialling as well as those
// queued behind its dial: a canceled DoBatch returns within 100 ms.
func TestStreamHandshakeHonoursCancel(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 16)
	go func() { // accepts, reads nothing, answers nothing
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	defer func() {
		for len(accepted) > 0 {
			(<-accepted).Close()
		}
	}()
	b := NewHTTPBackend("http://" + ln.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	const callers = 3
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := b.DoBatch(ctx, []serve.BatchItem{{ID: "E7"}})
			errs <- err
		}()
	}
	c := <-accepted // the dial is in its handshake
	defer c.Close()
	time.Sleep(20 * time.Millisecond) // the other callers queue behind it
	t0 := time.Now()
	cancel()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("DoBatch against an unanswered upgrade = %v, want context.Canceled", err)
		}
	}
	if d := time.Since(t0); d > 100*time.Millisecond {
		t.Fatalf("canceled callers were held %v behind an unanswered upgrade", d)
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
	redials := backends[1].(*HTTPBackend).Redials()
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
