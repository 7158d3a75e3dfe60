package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// pointLine and summaryLine are the reference the handler's hand-appended
// lines are held to: the structs bench/ and clients decode into, filled
// the way the handler filled them when json.Encoder wrote its lines.
func pointLine(pt Point) PointLine {
	pl := PointLine{
		Point:     pt.Index,
		Params:    pt.Params,
		Key:       pt.Key,
		CacheHit:  pt.CacheHit,
		Shared:    pt.Shared,
		LatencyMS: pt.Latency.Seconds() * 1e3,
		Findings:  pt.Result.Findings,
	}
	if h, ok := Headline(pt.Result); ok {
		pl.Headline = &h
	}
	return pl
}

func summaryLine(sum Summary) SummaryLine {
	var sl SummaryLine
	sl.Summary.ID = sum.ID
	sl.Summary.Points = sum.Points
	sl.Summary.CacheHits = sum.CacheHits
	sl.Summary.ElapsedMS = sum.Elapsed.Seconds() * 1e3
	sl.Summary.Findings = sum.Aggregate.Findings
	sl.Summary.Report = sum.Aggregate.Render()
	return sl
}

// runBothWays runs the sweep once and writes every line twice from the
// same Point and Summary values: by the appenders and by json.Encoder over
// the reference structs. Wall-clock fields are the same values on both
// sides, so the comparison needs no masking.
func runBothWays(t *testing.T, srv Server, id string, axes ...string) (got, want []byte, points int) {
	t.Helper()
	sp, err := ParseSpec(id, axes)
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	enc := json.NewEncoder(&ref)
	sum, err := Run(context.Background(), srv, sp, func(pt Point) error {
		if got, err = appendPointLine(got, &pt); err != nil {
			return err
		}
		return enc.Encode(pointLine(pt))
	})
	if err != nil {
		t.Fatalf("%s %v: %v", id, axes, err)
	}
	if got, err = appendSummaryLine(got, &sum); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(summaryLine(sum)); err != nil {
		t.Fatal(err)
	}
	return got, ref.Bytes(), sum.Points
}

// The hand-appended NDJSON lines are json.Encoder's, byte for byte: a cold
// E7 grid and its warm repeat (cache_hit flips, findings and report carry
// "—", "&" in every key), 1- and 3-axis sweeps, points without a headline,
// and findings full of what encoding/json escapes.
func TestSweepLinesMatchEncodingJSON(t *testing.T) {
	real := serve.NewEngine(serve.Config{Workers: 2})
	defer real.Close()
	var execs atomic.Int64
	fake := countingEngine(&execs) // no declared headline: the first-number fallback
	defer fake.Close()
	nasty := []string{"<b>a && b</b> \"q\" \\ ", "line one\nline two\ttab\r\x00\x1f",
		"sep \u2028 and \u2029 \u2027", "bad \xff\xfe utf8 \xe2\x80", "héllo — wörld"}
	hostile := serve.NewEngine(serve.Config{Workers: 2,
		RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
			// Rotate so every string also leads (first finding -> table cell
			// -> report) and every third point has none at all.
			k := int(p.Float("gens"))
			if k%3 == 0 {
				return core.Result{}, nil
			}
			return core.Result{Findings: append(append([]string{}, nasty[k%len(nasty):]...), nasty[:k%len(nasty)]...)}, nil
		}})
	defer hostile.Close()

	lines := 0
	for _, c := range []struct {
		name string
		srv  Server
		id   string
		axes []string
	}{
		{"cold E7 grid", real, "E7", []string{"f=0.6:0.95:0.05", "bces=16:3516:500"}},
		{"warm repeat", real, "E7", []string{"f=0.6:0.95:0.05", "bces=16:3516:500"}},
		{"duplicate lead value", real, "E7", []string{"f=0.9,0.9", "bces=64,128"}},
		{"1-axis", real, "E1", []string{"gens=1:12:1"}},
		{"3-axis, fallback headline", fake, "E3", []string{"fanout=1,10,100", "trials=1000,2000", "hedge=0.5,0.9"}},
		{"hostile findings, some points bare", hostile, "E1", []string{"gens=1:12:1"}},
	} {
		got, want, n := runBothWays(t, c.srv, c.id, c.axes...)
		if !bytes.Equal(got, want) {
			g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := range w {
				if i >= len(g) || g[i] != w[i] {
					t.Fatalf("%s: line %d:\n got %s\nwant %s", c.name, i, strings.Join(g[i:min(i+1, len(g))], ""), w[i])
				}
			}
			t.Fatalf("%s: %d bytes appended, json.Encoder wrote %d", c.name, len(got), len(want))
		}
		if c.name == "warm repeat" && !bytes.Contains(got, []byte(`"cache_hit":true`)) {
			t.Fatal("the warm repeat served no hit")
		}
		lines += n + 1
	}
	t.Logf("%d NDJSON lines byte-identical to json.Encoder", lines)
}

// sweepMux composes the endpoint the way cmd/arch21d mounts it.
func sweepMux(execs *atomic.Int64) (*http.ServeMux, func()) {
	eng := countingEngine(execs)
	mux := http.NewServeMux()
	mux.Handle("POST /sweep", Handler(eng))
	return mux, eng.Close
}

func postSweep(t *testing.T, mux *http.ServeMux, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

// ndjsonLines splits a response into decoded JSON objects, one per line.
func ndjsonLines(t *testing.T, body *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, v)
	}
	return out
}

// Acceptance criterion: POST /sweep streams one NDJSON line per grid
// point plus a summary, and a repeat sweep streams the same points all
// served from cache.
func TestSweepEndpointStreamsNDJSONAndCaches(t *testing.T) {
	var execs atomic.Int64
	mux, closeEng := sweepMux(&execs)
	defer closeEng()

	const body = `{"id":"E7","params":["f=0.9,0.95","bces=64,128"]}`
	w := postSweep(t, mux, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d body=%s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("content type = %q", ct)
	}
	lines := ndjsonLines(t, w.Body)
	if len(lines) != 5 {
		t.Fatalf("got %d NDJSON lines, want 4 points + 1 summary", len(lines))
	}
	for i, ln := range lines[:4] {
		if int(ln["point"].(float64)) != i {
			t.Fatalf("line %d out of order: %v", i, ln)
		}
		if ln["cache_hit"].(bool) {
			t.Fatalf("cold sweep point %d claims a cache hit", i)
		}
	}
	sum := lines[4]["summary"].(map[string]any)
	if int(sum["points"].(float64)) != 4 || int(sum["cache_hits"].(float64)) != 0 {
		t.Fatalf("summary = %v", sum)
	}
	if !strings.Contains(sum["report"].(string), "sweep E7: 4 points") {
		t.Fatalf("summary report missing aggregate table: %v", sum["report"])
	}
	coldExecs := execs.Load()
	if coldExecs != 4 {
		t.Fatalf("executions = %d, want 4", coldExecs)
	}

	// Repeat sweep: identical points, all cache hits, no new executions.
	w2 := postSweep(t, mux, body)
	lines2 := ndjsonLines(t, w2.Body)
	if len(lines2) != 5 {
		t.Fatalf("repeat: got %d lines", len(lines2))
	}
	for i := range lines2[:4] {
		if !lines2[i]["cache_hit"].(bool) {
			t.Fatalf("repeat point %d not from cache: %v", i, lines2[i])
		}
		if lines2[i]["params"].(map[string]any)["f"] != lines[i]["params"].(map[string]any)["f"] {
			t.Fatalf("repeat point %d differs: %v vs %v", i, lines2[i], lines[i])
		}
		if lines2[i]["findings"].(any) == nil {
			t.Fatalf("repeat point %d lost findings", i)
		}
	}
	sum2 := lines2[4]["summary"].(map[string]any)
	if int(sum2["cache_hits"].(float64)) != 4 {
		t.Fatalf("repeat summary = %v", sum2)
	}
	if sum2["report"] != sum["report"] {
		t.Fatal("aggregate report differs between cold and cached sweeps")
	}
	if execs.Load() != coldExecs {
		t.Fatalf("repeat sweep executed points: %d -> %d", coldExecs, execs.Load())
	}
}

func TestSweepEndpointRejects(t *testing.T) {
	var execs atomic.Int64
	mux, closeEng := sweepMux(&execs)
	defer closeEng()

	cases := []struct {
		body string
		code int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"id":"E99","params":["x=1"]}`, http.StatusNotFound},
		{`{"id":"E7","params":[]}`, http.StatusBadRequest},
		{`{"id":"E7","params":["nope=1"]}`, http.StatusBadRequest},
		{`{"id":"E7","params":["f=0.1,0.2"]}`, http.StatusBadRequest},
		{`{"id":"E7","params":["f=bad"]}`, http.StatusBadRequest},
		// Non-finite range bounds used to hang the handler goroutine in an
		// unbounded ParseAxis expansion; they must be a fast 400.
		{`{"id":"E7","params":["f=NaN:1:0.1"]}`, http.StatusBadRequest},
		{`{"id":"E7","params":["f=0:Inf:0.1"]}`, http.StatusBadRequest},
		// An over-limit body is 413, not a generic 400.
		{`{"id":"E7","params":["` + strings.Repeat("f", 1<<20) + `=1"]}`, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		w := postSweep(t, mux, c.body)
		if w.Code != c.code {
			t.Errorf("POST %s: status %d, want %d (body %s)", c.body, w.Code, c.code, w.Body.String())
		}
	}
	if execs.Load() != 0 {
		t.Fatalf("rejected sweeps executed %d points", execs.Load())
	}
}

// gatedEngine serves f < gateAt at once and holds every other point until
// release is closed, announcing each held point on held.
func gatedEngine(gateAt float64, held chan<- struct{}, release <-chan struct{}) *serve.Engine {
	return serve.NewEngine(serve.Config{
		Shards: 4, Workers: 2,
		RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
			if f := p.Float("f"); f >= gateAt {
				held <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return core.Result{}, ctx.Err()
				}
			}
			res := core.Result{Findings: []string{"point done"}}
			res.SetHeadline(p.Float("f"))
			return res, nil
		},
	})
}

// The invariant that replaced a flush per line: no emitted line is held
// across a wait on the engine. With wave 2 blocked inside its runner, the
// client already has every line of wave 1.
func TestSweepStreamHoldsNoLineAcrossAWait(t *testing.T) {
	held := make(chan struct{}, 4) // wave 2 is four points
	release := make(chan struct{})
	eng := gatedEngine(0.94, held, release)
	defer eng.Close()
	srv := httptest.NewServer(Handler(eng))
	defer srv.Close()

	// Eight points, parallelism 2: two waves of four; the gate shuts on
	// wave 2's first f value.
	body := `{"id":"E7","params":["f=0.9:0.97:0.01"],"parallelism":2}`
	resp, err := srv.Client().Post(srv.URL+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	point := func(want int) {
		t.Helper()
		var pl PointLine
		if !sc.Scan() {
			t.Fatalf("stream ended before point %d: %v", want, sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), &pl); err != nil || pl.Point != want || len(pl.Findings) != 1 {
			t.Fatalf("line %q (%v), want point %d", sc.Text(), err, want)
		}
	}
	// These reads would block for good if wave 1's lines sat in the
	// server's buffer while it waits on wave 2.
	for i := 0; i < 4; i++ {
		point(i)
	}
	<-held // wave 2 is inside the engine, and stays there until released
	close(release)
	for i := 4; i < 8; i++ {
		point(i)
	}
	var sl SummaryLine
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &sl) != nil || sl.Summary.Points != 8 {
		t.Fatalf("summary line %q: %v", sc.Text(), sc.Err())
	}
	if sc.Scan() {
		t.Fatalf("line after the summary: %q", sc.Text())
	}
}

// flushCounter is a recording ResponseWriter that counts Flush calls.
type flushCounter struct {
	*httptest.ResponseRecorder
	flushes int
}

func (f *flushCounter) Flush() { f.flushes++ }

var wallClockFields = regexp.MustCompile(`"(latency_ms|elapsed_ms)":[^,}]+`)

// A sweep flushes once per wave and once for the summary, and what it
// writes is what one Encode per line writes: the same lines, in order.
func TestSweepFlushesPerWaveNotPerLine(t *testing.T) {
	var execs atomic.Int64
	eng := countingEngine(&execs)
	defer eng.Close()
	axes := []string{"f=0.6:0.95:0.05", "bces=16:3516:500"} // 8 x 8, waves of 16
	reqBody, _ := json.Marshal(Request{ID: "E7", Params: axes})
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	Handler(eng).ServeHTTP(w, httptest.NewRequest("POST", "/sweep", bytes.NewReader(reqBody)))
	if w.Code != http.StatusOK || execs.Load() != 64 {
		t.Fatalf("status %d, %d executions", w.Code, execs.Load())
	}
	if w.flushes < 1 || w.flushes > 4+1 {
		t.Fatalf("%d Flush calls for 4 waves + summary, want at most 5", w.flushes)
	}

	// The reference: the same sweep on a fresh engine, one Encode per
	// point and one for the summary.
	ref := countingEngine(new(atomic.Int64))
	defer ref.Close()
	sp, err := ParseSpec("E7", axes)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	sum, err := Run(context.Background(), ref, sp, func(pt Point) error { return enc.Encode(pointLine(pt)) })
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(summaryLine(sum)); err != nil {
		t.Fatal(err)
	}
	mask := func(b []byte) []string {
		return strings.Split(string(wallClockFields.ReplaceAll(b, []byte(`"$1":0`))), "\n")
	}
	got, ref65 := mask(w.Body.Bytes()), mask(want.Bytes())
	if len(got) != 64+1+1 || len(ref65) != len(got) { // the last element is the empty tail
		t.Fatalf("%d lines streamed, reference has %d, want 66", len(got), len(ref65))
	}
	for i := range got {
		if got[i] != ref65[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i, got[i], ref65[i])
		}
	}
}

// A point failing mid-wave ends the stream with the points before it and
// a terminal error line, flushed.
func TestSweepMidStreamErrorLine(t *testing.T) {
	eng := serve.NewEngine(serve.Config{
		Shards: 4, Workers: 2,
		RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
			if p.Float("f") == 0.92 {
				return core.Result{}, errors.New("model diverged")
			}
			return core.Result{Findings: []string{"ok 1"}}, nil
		},
	})
	defer eng.Close()
	w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
	Handler(eng).ServeHTTP(w, httptest.NewRequest("POST", "/sweep",
		strings.NewReader(`{"id":"E7","params":["f=0.9,0.91,0.92,0.93"]}`)))
	lines := ndjsonLines(t, w.Body)
	if w.Code != http.StatusOK || len(lines) != 3 {
		t.Fatalf("status %d, %d lines, want points 0, 1 and the error line", w.Code, len(lines))
	}
	msg, _ := lines[2]["error"].(string)
	if !strings.Contains(msg, "point 2") || !strings.Contains(msg, "model diverged") {
		t.Fatalf("terminal line = %v", lines[2])
	}
	if w.flushes != 1 {
		t.Fatalf("%d Flush calls, want 1 (the error line carries the two held points out)", w.flushes)
	}
}

// A headline JSON cannot carry ends the stream the way json.Encoder ended
// it: the points before it, then a terminal error line with json's own
// message, in one flush — and no bare NaN or Inf token on the wire.
func TestSweepNonFiniteHeadlineErrorLine(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		eng := serve.NewEngine(serve.Config{
			Shards: 4, Workers: 2,
			RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
				res := core.Result{Findings: []string{"ok 1"}}
				res.SetHeadline(p.Float("f"))
				if p.Float("f") == 0.92 {
					res.SetHeadline(bad)
				}
				return res, nil
			},
		})
		w := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		Handler(eng).ServeHTTP(w, httptest.NewRequest("POST", "/sweep",
			strings.NewReader(`{"id":"E7","params":["f=0.9,0.91,0.92,0.93"]}`)))
		eng.Close()
		lines := ndjsonLines(t, w.Body) // fails on a line that is not JSON
		if w.Code != http.StatusOK || len(lines) != 3 {
			t.Fatalf("headline %v: status %d, %d lines, want points 0, 1 and the error line", bad, w.Code, len(lines))
		}
		for i, ln := range lines[:2] {
			if int(ln["point"].(float64)) != i || ln["headline"] == nil {
				t.Fatalf("headline %v: line %d = %v", bad, i, ln)
			}
		}
		_, want := json.Marshal(bad)
		if msg, _ := lines[2]["error"].(string); msg != want.Error() {
			t.Fatalf("headline %v: terminal line = %v, want json's %q", bad, lines[2], want)
		}
		if w.flushes != 1 {
			t.Fatalf("headline %v: %d Flush calls, want 1", bad, w.flushes)
		}
	}
}
