package router

// Versioned-API suite: every error path on both HTTP front ends — a
// replica engine's handler and the routing front-end — answers with the
// shared httpapi envelope, on the legacy paths and their /v1 aliases
// alike; upstream sheds pass through with Retry-After intact; and
// HTTPBackend keeps one stream per replica, and the keep-alive pool its
// POST /control rides actually reuses connections, including across
// error responses.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
)

// decodeEnvelope asserts the response is the shared error envelope and
// returns its code.
func decodeEnvelope(t *testing.T, rec *httptest.ResponseRecorder) httpapi.ErrorDetail {
	t.Helper()
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not the shared envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", rec.Body.String())
	}
	return env.Error
}

func TestErrorEnvelopeBothFrontEnds(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
	t.Cleanup(eng.Close)
	rt, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fronts := []struct {
		name string
		h    http.Handler
	}{
		{"engine", eng.Handler()},
		{"router", rt.Handler()},
	}
	cases := []struct {
		name   string
		method string
		path   string
		status int
		code   string
	}{
		{"unknown experiment", "GET", "/run/NOPE", http.StatusNotFound, httpapi.CodeNotFound},
		{"malformed param", "GET", "/run/E7?param=bogus", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad class header", "GET", "/run/E7", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad deadline header", "GET", "/run/E7", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad events cursor", "GET", "/events?since=abc", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"bad control body", "POST", "/control", http.StatusBadRequest, httpapi.CodeBadRequest},
		{"junk batch frame", "POST", "/batch", http.StatusBadRequest, httpapi.CodeBadRequest},
	}
	for _, fe := range fronts {
		for _, prefix := range []string{"", "/v1"} {
			for _, tc := range cases {
				if fe.name == "router" && tc.name == "unknown experiment" {
					// The router's verdict for NOPE comes from its test
					// engine, which serves any ID; the engine front end
					// covers the 404 path.
					continue
				}
				t.Run(fmt.Sprintf("%s%s %s", fe.name, prefix, tc.name), func(t *testing.T) {
					var body *strings.Reader
					if tc.method == "POST" {
						body = strings.NewReader("{not json")
					} else {
						body = strings.NewReader("")
					}
					req := httptest.NewRequest(tc.method, prefix+tc.path, body)
					switch tc.name {
					case "bad class header":
						req.Header.Set("X-Arch21-Class", "bogus")
					case "bad deadline header":
						req.Header.Set("X-Arch21-Deadline-MS", "-5")
					}
					rec := httptest.NewRecorder()
					fe.h.ServeHTTP(rec, req)
					if rec.Code != tc.status {
						t.Fatalf("status %d, want %d\n%s", rec.Code, tc.status, rec.Body.String())
					}
					if got := decodeEnvelope(t, rec); got.Code != tc.code {
						t.Fatalf("code %q, want %q", got.Code, tc.code)
					}
				})
			}
		}
	}
}

func TestRouterFormatRejectionIsEnvelope(t *testing.T) {
	rt, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h := rt.Handler()
	for _, path := range []string{"/run/E7?format=text", "/v1/run/E7?format=text"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, rec.Code)
		}
		if got := decodeEnvelope(t, rec); got.Code != httpapi.CodeBadRequest {
			t.Fatalf("%s: code %q", path, got.Code)
		}
	}
}

func TestV1AliasesServeSameContent(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
	t.Cleanup(eng.Close)
	rt, err := New([]Backend{NewEngineBackend(newTestEngine(t), "engine[0]")}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, fe := range []struct {
		name string
		h    http.Handler
	}{{"engine", eng.Handler()}, {"router", rt.Handler()}} {
		for _, path := range []string{"/healthz", "/experiments"} {
			legacy, versioned := httptest.NewRecorder(), httptest.NewRecorder()
			fe.h.ServeHTTP(legacy, httptest.NewRequest("GET", path, nil))
			fe.h.ServeHTTP(versioned, httptest.NewRequest("GET", "/v1"+path, nil))
			if legacy.Code != http.StatusOK || versioned.Code != http.StatusOK {
				t.Fatalf("%s %s: legacy %d, /v1 %d", fe.name, path, legacy.Code, versioned.Code)
			}
			if legacy.Body.String() != versioned.Body.String() {
				t.Fatalf("%s %s: legacy and /v1 responses differ", fe.name, path)
			}
		}
	}
}

// shedReplica is a fake stream replica that answers every entry of
// every frame with a shed: 503 queue-full carrying retryAfter as the
// entry's retry hint.
func shedReplica(t *testing.T, retryAfter time.Duration) *httptest.Server {
	t.Helper()
	return fakeStreamReplica(t, func(entries []httpapi.BatchEntry) []httpapi.BatchResult {
		results := make([]httpapi.BatchResult, len(entries))
		for i := range results {
			results[i] = httpapi.BatchResult{Status: http.StatusServiceUnavailable,
				Msg: "queue full", RetryAfter: retryAfter}
		}
		return results
	})
}

func TestRouterPassesThroughUpstreamShedEnvelope(t *testing.T) {
	// A replica sheds with 503 + a retry hint; the front-end must re-emit
	// the same status, the envelope, and the backoff header instead of
	// swallowing them.
	replica := shedReplica(t, 2*time.Second)
	rt, err := New([]Backend{NewHTTPBackend(replica.URL)}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/run/E7", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503\n%s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want %q", got, "2")
	}
	if got := decodeEnvelope(t, rec); got.Code != httpapi.CodeQueueFull || got.RetryAfterMS != 2000 {
		t.Fatalf("envelope %+v, want queue_full with retry_after_ms 2000", got)
	}
}

func TestHTTPBackendReusesConnections(t *testing.T) {
	eng := newTestEngine(t)
	ctx := context.Background()

	// Over the stream, every attempt rides the one upgraded connection:
	// the replica sees a single request — the upgrade — and no redial.
	var requests atomic.Int64
	streamSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		eng.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(streamSrv.Close)
	b := NewHTTPBackend(streamSrv.URL)
	for i := 0; i < 8; i++ {
		if _, err := b.Do(ctx, fmt.Sprintf("E%d", i%2), nil); err != nil {
			t.Fatalf("stream attempt %d: %v", i, err)
		}
	}
	if redials := b.Redials(); redials != 0 || requests.Load() != 1 {
		t.Fatalf("8 attempts: %d redials, %d HTTP requests; want one stream, dialled once", redials, requests.Load())
	}

	// POST /control, the last POST the backend makes: sequential calls —
	// including one answered with an error status whose body the backend
	// must drain — have to ride one keep-alive connection. Without
	// draining, the transport tears the connection down after every error
	// and the pool silently degrades to a dial per request.
	var posts atomic.Int64
	postSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && posts.Add(1) == 2 {
			httpapi.WriteError(w, http.StatusServiceUnavailable, httpapi.CodeQueueFull,
				strings.Repeat("shed ", 20000)) // larger than the ack's 64 KiB read
			return
		}
		eng.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(postSrv.Close)
	b = NewHTTPBackend(postSrv.URL)

	var mu sync.Mutex
	var reused []bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		mu.Lock()
		reused = append(reused, info.Reused)
		mu.Unlock()
	}}
	ctx = httptrace.WithClientTrace(ctx, trace)

	body := []byte(`{"batch_rate": 96}`)
	if _, err := b.Control(ctx, body); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if _, err := b.Control(ctx, body); replicaStatus(err) != http.StatusServiceUnavailable {
		t.Fatalf("error request = %v, want the 503", err)
	}
	if _, err := b.Control(ctx, body); err != nil {
		t.Fatalf("post-error request: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reused) != 3 {
		t.Fatalf("saw %d connections, want 3", len(reused))
	}
	if reused[0] {
		t.Fatal("first request cannot reuse")
	}
	if !reused[1] {
		t.Fatal("second request dialed fresh: the success body was not drained")
	}
	if !reused[2] {
		t.Fatal("request after the 503 dialed fresh: the error body was not drained")
	}
}
