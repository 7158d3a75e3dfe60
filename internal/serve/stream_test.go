package serve

// Replica-side tests of the stream carrier, driven by a raw protocol
// client so they pin the wire contract rather than router.HTTPBackend's
// implementation of it.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// rawStream is a minimal stream client.
type rawStream struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

// dialStream upgrades a connection to the server's /v1/stream.
func dialStream(t *testing.T, srv *httptest.Server) *rawStream {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: replica\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", httpapi.StreamProtocol)
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("upgrade: %v", err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols || resp.Header.Get("Upgrade") != httpapi.StreamProtocol {
		t.Fatalf("upgrade answered %d (Upgrade: %q)", resp.StatusCode, resp.Header.Get("Upgrade"))
	}
	return &rawStream{t: t, conn: conn, br: br}
}

// request sends one request message of the given entries.
func (s *rawStream) request(id uint32, env httpapi.Envelope, entries ...httpapi.BatchEntry) {
	s.t.Helper()
	msg := httpapi.AppendBatchRequest(env.Append(make([]byte, httpapi.StreamHeaderLen)), entries)
	httpapi.PutStreamHeader(msg, id, httpapi.StreamRequest)
	if _, err := s.conn.Write(msg); err != nil {
		s.t.Fatalf("write request %d: %v", id, err)
	}
}

func (s *rawStream) cancel(id uint32) {
	s.t.Helper()
	var msg [httpapi.StreamHeaderLen]byte
	httpapi.PutStreamHeader(msg[:], id, httpapi.StreamCancel)
	if _, err := s.conn.Write(msg[:]); err != nil {
		s.t.Fatalf("write cancel %d: %v", id, err)
	}
}

// reply reads the next message from the replica.
func (s *rawStream) reply() (id uint32, kind byte, body []byte, err error) {
	_ = s.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [httpapi.StreamHeaderLen]byte
	if _, err = io.ReadFull(s.br, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	id, kind, n, err := httpapi.ParseStreamHeader(hdr[:], httpapi.MaxStreamReplyBytes)
	if err != nil {
		return 0, 0, nil, err
	}
	body = make([]byte, n)
	_, err = io.ReadFull(s.br, body)
	return id, kind, body, err
}

// okReply reads a reply that must be request id's, all entries OK.
func (s *rawStream) okReply(id uint32) []httpapi.BatchResult {
	s.t.Helper()
	got, kind, body, err := s.reply()
	if err != nil || got != id || kind != httpapi.StreamReply {
		s.t.Fatalf("reply = (id %d, kind %d, %v), want reply to %d", got, kind, err, id)
	}
	results, err := httpapi.DecodeBatchResponse(body)
	if err != nil {
		s.t.Fatalf("reply %d: %v", id, err)
	}
	for i, r := range results {
		if !r.OK {
			s.t.Fatalf("reply %d entry %d: %d %s", id, i, r.Status, r.Msg)
		}
	}
	return results
}

// gateRunner blocks every run of an ID starting with "slow" until release
// is closed or its context ends, counting both.
type gateRunner struct {
	release  chan struct{}
	started  atomic.Int64
	canceled atomic.Int64
}

func (g *gateRunner) run(ctx context.Context, id string, _ core.Params) (core.Result, error) {
	if strings.HasPrefix(id, "slow") {
		g.started.Add(1)
		select {
		case <-g.release:
		case <-ctx.Done():
			g.canceled.Add(1)
			return core.Result{}, ctx.Err()
		}
	}
	return fakeResult(id), nil
}

// (a) The hijacked connection must outlive the http.Server's read
// timeout: arch21d runs with one, and the deadline it armed for the
// upgrade request would otherwise kill the stream that long after.
func TestStreamOutlivesServerReadTimeout(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: byID(func(id string) (core.Result, error) { return fakeResult(id), nil })})
	defer e.Close()
	srv := httptest.NewUnstartedServer(e.Handler())
	srv.Config.ReadTimeout = 50 * time.Millisecond
	srv.Config.WriteTimeout = 50 * time.Millisecond
	srv.Start()
	defer srv.Close()
	s := dialStream(t, srv)
	s.request(1, httpapi.Envelope{}, httpapi.BatchEntry{ID: "K"})
	s.okReply(1)
	time.Sleep(150 * time.Millisecond) // three read timeouts of idleness
	s.request(2, httpapi.Envelope{}, httpapi.BatchEntry{ID: "K"})
	if r := s.okReply(2); !r[0].CacheHit {
		t.Fatal("second request on the same stream was not a cache hit")
	}
}

// (b) An over-cap length ends the connection before anything is
// allocated for it; a malformed envelope or frame answers a whole-frame
// error and leaves the connection up.
func TestStreamRejectsOversizeAndMalformed(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: byID(func(id string) (core.Result, error) { return fakeResult(id), nil })})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	s := dialStream(t, srv)
	bad := append(make([]byte, httpapi.StreamHeaderLen), 9, 9, 9) // class byte 9
	httpapi.PutStreamHeader(bad, 5, httpapi.StreamRequest)
	if _, err := s.conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	id, kind, body, err := s.reply()
	if err != nil || id != 5 || kind != httpapi.StreamError {
		t.Fatalf("malformed envelope answered (id %d, kind %d, %v), want error to 5", id, kind, err)
	}
	if status, _, err := httpapi.ParseStreamError(body); err != nil || status != http.StatusBadRequest {
		t.Fatalf("malformed envelope error = (%d, %v), want 400", status, err)
	}
	garbage := append(httpapi.Envelope{}.Append(make([]byte, httpapi.StreamHeaderLen)), "not a frame"...)
	httpapi.PutStreamHeader(garbage, 6, httpapi.StreamRequest)
	if _, err := s.conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	if id, kind, _, err := s.reply(); err != nil || id != 6 || kind != httpapi.StreamError {
		t.Fatalf("garbage frame answered (id %d, kind %d, %v), want error to 6", id, kind, err)
	}
	s.request(7, httpapi.Envelope{}, httpapi.BatchEntry{ID: "K"})
	s.okReply(7)

	huge := []byte{0, 0, 0, 8, httpapi.StreamRequest, 0xff, 0xff, 0xff, 0xff}
	if _, err := s.conn.Write(huge); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.reply(); err == nil {
		t.Fatal("a 4 GiB length did not end the connection")
	}
}

// (b) In-flight frames per connection are bounded: at the cap the reader
// stops reading, so frames past it wait in the socket, not in goroutines.
func TestStreamBoundsInflightFrames(t *testing.T) {
	g := &gateRunner{release: make(chan struct{})}
	// One worker and a deep queue: every admitted frame parks in
	// admission (batch class backpressures instead of shedding).
	e := NewEngine(Config{Shards: 4, Workers: 1, Queue: 4 * streamMaxInflight, RunnerWith: g.run})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	s := dialStream(t, srv)
	const extra = 8
	for i := 0; i < streamMaxInflight+extra; i++ {
		s.request(uint32(i+1), httpapi.Envelope{Class: admit.Batch},
			httpapi.BatchEntry{ID: fmt.Sprintf("slow%d", i), Class: admit.Batch})
	}
	requests := func() int64 { return e.classes[admit.Batch].requests() }
	waitFor(t, func() bool { return requests() == streamMaxInflight })
	time.Sleep(50 * time.Millisecond)
	if n := requests(); n != streamMaxInflight {
		t.Fatalf("%d frames in flight, cap is %d", n, streamMaxInflight)
	}
	close(g.release)
	seen := map[uint32]bool{}
	for i := 0; i < streamMaxInflight+extra; i++ {
		id, kind, _, err := s.reply()
		if err != nil || kind != httpapi.StreamReply || seen[id] {
			t.Fatalf("reply %d = (id %d, kind %d, %v)", i, id, kind, err)
		}
		seen[id] = true
	}
}

// (d) A slow miss does not hold up a warm hit queued behind it on the
// same stream; (e) a cancel message reaches the runner's context and the
// connection goes on serving.
func TestStreamOutOfOrderAndCancel(t *testing.T) {
	g := &gateRunner{release: make(chan struct{})}
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: g.run})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	s := dialStream(t, srv)

	s.request(1, httpapi.Envelope{}, httpapi.BatchEntry{ID: "warm"})
	s.okReply(1)
	s.request(2, httpapi.Envelope{}, httpapi.BatchEntry{ID: "slow-a"})
	waitFor(t, func() bool { return g.started.Load() == 1 })
	s.request(3, httpapi.Envelope{}, httpapi.BatchEntry{ID: "warm"})
	if r := s.okReply(3); !r[0].CacheHit { // arrives while 2 is still running
		t.Fatal("warm entry behind the slow miss was not a hit")
	}

	s.cancel(2)
	waitFor(t, func() bool { return g.canceled.Load() == 1 })
	id, kind, body, err := s.reply()
	if err != nil || id != 2 || kind != httpapi.StreamReply {
		t.Fatalf("canceled request answered (id %d, kind %d, %v)", id, kind, err)
	}
	if results, err := httpapi.DecodeBatchResponse(body); err != nil || len(results) != 1 || results[0].OK {
		t.Fatalf("canceled entry = %+v (%v), want a failed entry", results, err)
	}
	s.cancel(99) // unknown id: ignored
	s.request(4, httpapi.Envelope{}, httpapi.BatchEntry{ID: "warm"})
	s.okReply(4)

	m := e.Metrics()
	for class, c := range m.Classes {
		if err := c.Balance(); err != nil {
			t.Fatalf("class %s books do not balance: %v", class, err)
		}
	}
}

// A frame that mixes hits and misses has its hits served on the reader and
// only its miss handed on: an all-hit frame behind it is answered while the
// miss is held, the mixed reply carries the hits as hits, every entry is
// booked once, and a cancel of a mixed frame reaches only its miss's runner.
func TestStreamMixedFrames(t *testing.T) {
	g := &gateRunner{release: make(chan struct{})}
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: g.run})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	s := dialStream(t, srv)

	warm := make([]httpapi.BatchEntry, 16)
	for i := range warm {
		warm[i] = httpapi.BatchEntry{ID: fmt.Sprintf("warm%d", i)}
	}
	s.request(1, httpapi.Envelope{}, warm...)
	s.okReply(1)
	s.request(2, httpapi.Envelope{}, warm[0], warm[1], warm[2], httpapi.BatchEntry{ID: "slow-a"})
	waitFor(t, func() bool { return g.started.Load() == 1 })
	s.request(3, httpapi.Envelope{}, warm...)
	for i, r := range s.okReply(3) { // arrives while 2's miss is held
		if !r.CacheHit {
			t.Fatalf("all-hit frame entry %d was not a hit", i)
		}
	}

	s.request(4, httpapi.Envelope{}, warm[3], warm[4], warm[5], httpapi.BatchEntry{ID: "slow-b"})
	waitFor(t, func() bool { return g.started.Load() == 2 })
	s.cancel(4)
	waitFor(t, func() bool { return g.canceled.Load() == 1 })
	id, kind, body, err := s.reply()
	if err != nil || id != 4 || kind != httpapi.StreamReply {
		t.Fatalf("canceled frame answered (id %d, kind %d, %v)", id, kind, err)
	}
	results, err := httpapi.DecodeBatchResponse(body)
	if err != nil || len(results) != 4 || results[3].OK {
		t.Fatalf("canceled frame = %+v (%v), want its miss failed", results, err)
	}
	for i, r := range results[:3] {
		if !r.OK || !r.CacheHit {
			t.Fatalf("canceled frame's entry %d = %+v, want a hit", i, r)
		}
	}

	close(g.release)
	results = s.okReply(2)
	for i, r := range results {
		if r.CacheHit != (i < 3) {
			t.Fatalf("mixed frame entry %d: cache_hit %v", i, r.CacheHit)
		}
	}
	if n := g.canceled.Load(); n != 1 {
		t.Fatalf("%d runners canceled, want only the canceled frame's", n)
	}

	var requests, hits int64
	for class, c := range e.Metrics().Classes {
		if err := c.Balance(); err != nil {
			t.Fatalf("class %s books do not balance: %v", class, err)
		}
		requests, hits = requests+c.Requests, hits+c.CacheHits
	}
	if requests != 40 || hits != 22 {
		t.Fatalf("books read %d requests, %d hits; want 40 and 22, each entry once", requests, hits)
	}
}

// The upgrade's refusals: no Upgrade header or a ResponseWriter that
// cannot be hijacked is a definitive 426; a closed engine drops the
// connection without a 101 (a transport failure to the dialer).
func TestStreamUpgradeRefusals(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2})
	h := e.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/stream", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUpgradeRequired {
		t.Fatalf("no Upgrade header answered %d, want 426", rec.Code)
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", httpapi.StreamProtocol)
	rec = httptest.NewRecorder() // not a Hijacker
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUpgradeRequired {
		t.Fatalf("unhijackable writer answered %d, want 426", rec.Code)
	}

	srv := httptest.NewServer(h)
	defer srv.Close()
	s := dialStream(t, srv)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); e.Close() }()
	if _, _, _, err := s.reply(); err == nil {
		t.Fatal("Engine.Close left the stream open")
	}
	wg.Wait()
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET /v1/stream HTTP/1.1\r\nHost: replica\r\nConnection: Upgrade\r\nUpgrade: %s\r\n\r\n", httpapi.StreamProtocol)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
		t.Fatalf("upgrade on a closed engine answered %d, want the connection dropped", resp.StatusCode)
	}
}
