package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
)

func newTestServer(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e := newTestEngine(func(id string) (core.Result, error) {
		return fakeResult(id), nil
	})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp, b.String()
}

func TestHealthz(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestExperimentsListing(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiments: %d", resp.StatusCode)
	}
	var list []ExperimentInfo
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("experiments JSON: %v", err)
	}
	if len(list) != len(core.Registry()) {
		t.Fatalf("experiments: got %d want %d", len(list), len(core.Registry()))
	}
}

func TestRunEndpointJSON(t *testing.T) {
	e, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/run/X7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d %q", resp.StatusCode, body)
	}
	var env runEnvelope
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("run JSON: %v", err)
	}
	if env.ID != "X7" || env.CacheHit || env.Report == "" {
		t.Fatalf("run envelope: %+v", env)
	}
	resp2, body2 := get(t, srv.URL+"/run/X7")
	var env2 runEnvelope
	if err := json.Unmarshal([]byte(body2), &env2); err != nil {
		t.Fatalf("run JSON (2nd): %v %d", err, resp2.StatusCode)
	}
	if !env2.CacheHit {
		t.Fatal("second request should be served from cache")
	}
	if e.Metrics().Executions != 1 {
		t.Fatalf("executions: got %d want 1", e.Metrics().Executions)
	}
}

func TestRunEndpointTextAndCSV(t *testing.T) {
	_, srv := newTestServer(t)
	_, text := get(t, srv.URL+"/run/X1?format=text")
	if !strings.Contains(text, "result for X1") || !strings.Contains(text, "finding for X1") {
		t.Fatalf("text format: %q", text)
	}
	_, csv := get(t, srv.URL+"/run/X1?format=csv")
	if !strings.HasPrefix(csv, "metric,value") {
		t.Fatalf("csv format: %q", csv)
	}
	resp, _ := get(t, srv.URL+"/run/X1?format=yaml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad format: got %d want 400", resp.StatusCode)
	}
}

func TestRunEndpointUnknownID(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	defer e.Close()
	resp, body := get(t, srv.URL+"/run/NOPE")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: got %d (%q) want 404", resp.StatusCode, body)
	}
}

func TestRunEndpointInternalError(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) {
		return core.Result{}, errors.New("backend exploded")
	})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	defer e.Close()
	resp, body := get(t, srv.URL+"/run/X1")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("runner failure: got %d (%q) want 500", resp.StatusCode, body)
	}
	if !strings.Contains(body, "backend exploded") {
		t.Fatalf("error body: %q", body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, srv := newTestServer(t)
	get(t, srv.URL+"/run/X1")
	get(t, srv.URL+"/run/X1")
	resp, body := get(t, srv.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if m.Requests != 2 || m.CacheHits != 1 || m.Executions != 1 {
		t.Fatalf("stats: %+v", m)
	}
	if m.AllLatency.Count != 2 || m.AllLatency.P99 <= 0 {
		t.Fatalf("latency snapshot: %+v", m.AllLatency)
	}
	if m.Cache.Shards != 4 || m.Cache.Entries != 1 {
		t.Fatalf("cache stats: %+v", m.Cache)
	}
}

// The binary transport: the body is the memoized codec payload verbatim
// (decodable into the same Result JSON would describe) and the envelope
// fields ride in X-Arch21-* response headers.
func TestRunEndpointBinaryFormat(t *testing.T) {
	_, srv := newTestServer(t)
	// Warm the entry, then fetch it as bin: the hit must be flagged in
	// the header and the body must decode to the memoized result.
	if resp, _ := get(t, srv.URL+"/run/X1?format=bin"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold bin GET: %d", resp.StatusCode)
	}
	resp, body := get(t, srv.URL+"/run/X1?format=bin")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm bin GET: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", got)
	}
	if resp.Header.Get("X-Arch21-Cache-Hit") != "1" {
		t.Fatal("warm bin GET not flagged as cache hit")
	}
	if got := resp.Header.Get("X-Arch21-Key"); got != "X1" {
		t.Fatalf("key header = %q, want X1", got)
	}
	res, err := core.DecodeResult([]byte(body))
	if err != nil {
		t.Fatalf("bin body does not decode: %v", err)
	}
	if res.Render() != fakeResult("X1").Render() {
		t.Fatal("bin body decodes to a different result")
	}
}

func TestRunEndpointBinaryParamsHeader(t *testing.T) {
	_, srv := newTestServer(t)
	resp, _ := get(t, srv.URL+"/run/E7?format=bin&param=bces=512")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bin GET with params: %d", resp.StatusCode)
	}
	params, err := core.ParseParams(resp.Header.Values("X-Arch21-Param"))
	if err != nil {
		t.Fatalf("param headers do not parse: %v", err)
	}
	if params["bces"] != 512 {
		t.Fatalf("params from headers = %v, want bces=512 present", params)
	}
	if key := resp.Header.Get("X-Arch21-Key"); !strings.Contains(key, "bces=512") {
		t.Fatalf("key header %q does not carry the resolved assignment", key)
	}
}

func TestRunEndpointRejectsUnknownFormat(t *testing.T) {
	_, srv := newTestServer(t)
	resp, body := get(t, srv.URL+"/run/X1?format=yaml")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(body, "format must be") {
		t.Fatalf("unknown-format error body: %s", body)
	}
}
