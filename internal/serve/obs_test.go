package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// scrape runs one GET /metrics through the engine's full handler and
// returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	return rec.Body.String()
}

// TestMetricsExpositionClean drives mixed-class traffic (including sheds)
// through the engine and validates the resulting /metrics scrape the way
// promlint would: naming, metadata, histogram shape.
func TestMetricsExpositionClean(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	h := e.Handler()

	for i := 0; i < 8; i++ {
		ctx := admit.WithClass(context.Background(), admit.Interactive)
		if i%2 == 1 {
			ctx = admit.WithClass(context.Background(), admit.Batch)
		}
		if _, err := e.ServeWith(ctx, fmt.Sprintf("X%d", i%3), core.Params{}); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}

	body := scrape(t, h)
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Fatalf("/metrics is not promlint-clean:\n  %s", strings.Join(problems, "\n  "))
	}

	// Table-driven spot checks on families the dashboards depend on: each
	// must carry HELP and TYPE metadata and at least one sample of the
	// declared shape.
	cases := []struct {
		family string
		typ    string
		sample string // substring of an expected sample line
	}{
		{"arch21_requests_total", "counter", `arch21_requests_total{class="interactive"}`},
		{"arch21_requests_total", "counter", `arch21_requests_total{class="batch"}`},
		{"arch21_cache_hits_total", "counter", `arch21_cache_hits_total{class="interactive"}`},
		{"arch21_executions_total", "counter", `arch21_executions_total{class=`},
		{"arch21_sheds_total", "counter", `arch21_sheds_total{class=`},
		{"arch21_request_duration_seconds", "histogram",
			`arch21_request_duration_seconds_bucket{class="interactive",outcome="cold",le="+Inf"}`},
		{"arch21_request_duration_seconds", "histogram",
			`arch21_request_duration_seconds_sum{class="interactive",outcome="hit"}`},
		{"arch21_queue_depth", "gauge", `arch21_queue_depth{class=`},
		{"arch21_workers", "gauge", "arch21_workers "},
		{"arch21_batch_rate", "gauge", "arch21_batch_rate "},
		{"arch21_cache_entries", "gauge", "arch21_cache_entries "},
		{"arch21_events_total", "counter", "arch21_events_total "},
		{"arch21_uptime_seconds", "gauge", "arch21_uptime_seconds "},
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			if !strings.Contains(body, "# HELP "+tc.family+" ") {
				t.Errorf("missing HELP for %s", tc.family)
			}
			if !strings.Contains(body, fmt.Sprintf("# TYPE %s %s", tc.family, tc.typ)) {
				t.Errorf("missing TYPE %s %s", tc.family, tc.typ)
			}
			if !strings.Contains(body, tc.sample) {
				t.Errorf("missing sample %q", tc.sample)
			}
		})
	}
}

// TestMetricsScrapeDoesNotConsumeWindow is the regression gate for the
// scrape-isolation invariant: /metrics must never drain the controller's
// TakeClassWindow reservoir, no matter how many scrapes land between
// controller ticks.
func TestMetricsScrapeDoesNotConsumeWindow(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	h := e.Handler()

	const n = 12
	for i := 0; i < n; i++ {
		if _, err := serveDefault(e, fmt.Sprintf("W%d", i)); err != nil {
			t.Fatalf("serve: %v", err)
		}
	}
	for i := 0; i < 25; i++ {
		scrape(t, h)
	}
	win := e.TakeClassWindow(admit.Interactive)
	if win.Count != n {
		t.Fatalf("controller window after 25 scrapes: Count=%d want %d (scrapes consumed the window)", win.Count, n)
	}
	// And the window, once taken by the controller, is actually fresh.
	if again := e.TakeClassWindow(admit.Interactive); again.Count != 0 {
		t.Fatalf("second TakeClassWindow: Count=%d want 0", again.Count)
	}
}

func TestApplyControl(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()

	rate := 64.0
	ack, err := e.ApplyControl(ControlRequest{BatchRate: &rate})
	if err != nil {
		t.Fatalf("ApplyControl(batch_rate): %v", err)
	}
	if got := e.sched.BatchRate(); got != 64 {
		t.Fatalf("BatchRate after control: %g want 64", got)
	}
	if ack.Applied["batch_rate"] != "64" {
		t.Fatalf("ack: %+v", ack)
	}

	// slo_ms without a controller attached must be rejected...
	ms := 50.0
	if _, err := e.ApplyControl(ControlRequest{SLOMS: &ms}); err == nil {
		t.Fatal("slo_ms with no controller attached should fail")
	}
	// ...and must reach the hook once one is registered.
	var gotSLO time.Duration
	e.OnSLOChange(func(slo time.Duration) error { gotSLO = slo; return nil })
	if _, err := e.ApplyControl(ControlRequest{SLOMS: &ms}); err != nil {
		t.Fatalf("ApplyControl(slo_ms): %v", err)
	}
	if gotSLO != 50*time.Millisecond {
		t.Fatalf("SLO hook got %v want 50ms", gotSLO)
	}

	for name, req := range map[string]ControlRequest{
		"negative rate": {BatchRate: ptr(-1.0)},
		"NaN rate":      {BatchRate: ptr(nan())},
		"zero slo":      {SLOMS: ptr(0.0)},
	} {
		if _, err := e.ApplyControl(req); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// A request with one bad knob must apply nothing (validate-all-first).
	bad := ControlRequest{BatchRate: ptr(128.0), SLOMS: ptr(-5.0)}
	if _, err := e.ApplyControl(bad); err == nil {
		t.Fatal("mixed good/bad request should fail whole")
	}
	if got := e.sched.BatchRate(); got != 64 {
		t.Fatalf("failed control mutated batch rate to %g", got)
	}

	// Each successful control decision lands in the event ring.
	var controls int
	for _, ev := range e.Events().Since(0) {
		if ev.Type == obs.EventControl {
			controls++
		}
	}
	if controls != 2 {
		t.Fatalf("control events recorded: %d want 2", controls)
	}
}

func ptr(f float64) *float64 { return &f }
func nan() (f float64)       { f = 0; f /= f; return } //nolint: deliberate NaN

func TestControlHandlerHTTP(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	h := e.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/control", strings.NewReader(body))
		h.ServeHTTP(rec, req)
		return rec
	}

	rec := post(`{"batch_rate": 32}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /control: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	var ack ControlAck
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatalf("bad ack: %v", err)
	}
	if ack.Applied["batch_rate"] != "32" || e.sched.BatchRate() != 32 {
		t.Fatalf("ack %+v, rate %g", ack, e.sched.BatchRate())
	}

	// DecodeControl is strict, and the front-end and the in-process
	// replica run it too: none of these bodies is applied anywhere.
	for _, body := range []string{
		``,
		`{}`,
		`not json`,
		`{"batch_rate": "7"}`,
		`{"batch_rate": 7, "bogus": 1}`,
		`{"batch_rate": 7, "policy": "shared-fifo"}`,
		`{"batch_rate": 7} {"slo_ms": 50}`,
	} {
		if rec := post(body); rec.Code != http.StatusBadRequest {
			t.Errorf("%q: HTTP %d want 400", body, rec.Code)
		}
	}
	if got := e.sched.BatchRate(); got != 32 {
		t.Fatalf("a refused body moved the batch rate to %g", got)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/control", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /control: HTTP %d want 405", rec.Code)
	}
}

// TestConcurrentScrapeServeControl exercises every observability surface
// at once — serving, /metrics scrapes, /stats, /events, and live control
// retunes — and relies on the -race CI lane to flag unsynchronized state.
func TestConcurrentScrapeServeControl(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	h := e.Handler()

	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				class := admit.Interactive
				if i%2 == 0 {
					class = admit.Batch
				}
				ctx := admit.WithClass(context.Background(), class)
				_, _ = e.ServeWith(ctx, fmt.Sprintf("C%d-%d", g, i%5), core.Params{})
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
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
			rec = httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events?since=0", nil))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rate := float64(100 + i)
			if _, err := e.ApplyControl(ControlRequest{BatchRate: &rate}); err != nil {
				t.Errorf("ApplyControl: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	if problems := obs.Lint(strings.NewReader(scrape(t, h))); len(problems) > 0 {
		t.Fatalf("post-race scrape not clean:\n  %s", strings.Join(problems, "\n  "))
	}
}

// The /metrics histogram is read off the engine's fine-bucket instrument;
// what a scraper sees must be exactly what a histogram built over the
// documented le bounds would have counted for the same stream — same
// bounds, same cumulative counts, same count and sum.
func TestMetricsHistogramMatchesReference(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()

	ref := stats.NewAtomicHistogram(stats.DefaultLatencyBuckets())
	rng := stats.NewRNG(5)
	d := stats.LogNormal{Mu: math.Log(20e-6), Sigma: 2.5} // 100 ns .. seconds, and a few past 10 s
	for i := 0; i < 5000; i++ {
		lat := time.Duration(d.Sample(rng) * 1e9)
		e.observe(admit.Batch, true, lat, i) // every stripe, as every processor would
		ref.Observe(lat.Seconds())
	}
	// Land exactly on bounds too: upper bounds are inclusive.
	for _, le := range stats.DefaultLatencyBuckets() {
		lat := time.Duration(math.Round(le * 1e9))
		e.observe(admit.Batch, true, lat, 0)
		ref.Observe(lat.Seconds())
	}
	want := ref.Snapshot()

	body := scrape(t, e.Handler())
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Fatalf("/metrics is not promlint-clean:\n  %s", strings.Join(problems, "\n  "))
	}
	var les []float64
	var cums []uint64
	var count, inf, sum float64
	series := regexp.MustCompile(`(?m)^arch21_request_duration_seconds_(bucket|count|sum)\{class="batch",outcome="hit"(?:,le="([^"]+)")?\} (\S+)$`)
	for _, m := range series.FindAllStringSubmatch(body, -1) {
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", m[0], err)
		}
		switch le, _ := strconv.ParseFloat(m[2], 64); {
		case m[1] == "count":
			count = v
		case m[1] == "sum":
			sum = v
		case m[2] == "+Inf":
			inf = v
		default:
			les, cums = append(les, le), append(cums, uint64(v))
		}
	}
	if !slices.Equal(les, want.Bounds) {
		t.Fatalf("le bounds %v, want %v", les, want.Bounds)
	}
	if !slices.Equal(cums, want.CumCounts) {
		t.Errorf("cumulative counts %v, want %v", cums, want.CumCounts)
	}
	if uint64(count) != want.Count || uint64(inf) != want.Count || math.Abs(sum-want.Sum) > 1e-9*want.Sum {
		t.Errorf(`count/le="+Inf"/sum %g/%g/%g, want %d/%d/%g`, count, inf, sum, want.Count, want.Count, want.Sum)
	}
	// The hit counter is that histogram's count.
	if !strings.Contains(body, fmt.Sprintf("arch21_cache_hits_total{class=\"batch\"} %d\n", want.Count)) {
		t.Errorf("arch21_cache_hits_total{class=\"batch\"} is not the hit histogram's count %d", want.Count)
	}
}
