package serve

// The /run JSON envelope is spliced from a per-request head and a tail
// memoized in the slab. These tests hold the spliced bytes to the whole
// envelope encoded by httpapi.WriteJSON, and hold the memo to its rules:
// built only by a JSON hit, never carried into dumps or snapshots, and
// coherent under concurrent mixed-format traffic with invalidation.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/report"
)

// runEnvelope is the whole /run/{id} JSON response as one struct — the
// shape the handler encoded per request before the tail was memoized,
// kept as the reference the spliced bytes are compared against.
type runEnvelope struct {
	ID        string      `json:"id"`
	Params    core.Params `json:"params,omitempty"`
	Key       string      `json:"key,omitempty"`
	Class     string      `json:"class"`
	CacheHit  bool        `json:"cache_hit"`
	Shared    bool        `json:"shared"`
	LatencyMS float64     `json:"latency_ms"`
	Headline  *float64    `json:"headline,omitempty"`
	Findings  []string    `json:"findings,omitempty"`
	Report    string      `json:"report"`
}

func serveGET(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// checkEnvelope compares a /run reply byte for byte with want encoded by
// httpapi.WriteJSON, after substituting the reply's own latency_ms.
func checkEnvelope(t *testing.T, what string, rec *httptest.ResponseRecorder, want runEnvelope) {
	t.Helper()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json; charset=utf-8" {
		t.Errorf("%s: status %d, Content-Type %q", what, rec.Code, rec.Header().Get("Content-Type"))
		return
	}
	var got runEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Errorf("%s: body does not parse: %v", what, err)
		return
	}
	want.LatencyMS = got.LatencyMS
	ref := httptest.NewRecorder()
	httpapi.WriteJSON(ref, http.StatusOK, want)
	if !bytes.Equal(rec.Body.Bytes(), ref.Body.Bytes()) {
		t.Errorf("%s: body differs from the encoding/json envelope\n got: %q\nwant: %q",
			what, rec.Body.Bytes(), ref.Body.Bytes())
	}
}

// hasTail reports whether key's entry carries a memoized tail.
func hasTail(e *Engine, key string) bool {
	_, tail, _ := e.cache.GetWithAux(key)
	return tail != nil
}

// nonDefault assigns every declared parameter a valid value other than
// its default, so the cache key carries each of them.
func nonDefault(ex core.Experiment) core.Params {
	p := core.Params{}
	for _, s := range ex.Params {
		p[s.Name] = s.Min
		if s.Min == s.Default {
			p[s.Name] = s.Max
		}
	}
	return p
}

func query(p core.Params) string {
	q := url.Values{}
	for _, a := range p.Assignments() {
		q.Add("param", a)
	}
	if len(q) == 0 {
		return ""
	}
	return "?" + q.Encode()
}

// Every registry experiment, with no params, one explicit default and all
// non-default params, as a miss, as the hit that builds the tail and as a
// hit served from it: the body is the old whole-envelope encoding.
func TestRunEnvelopeByteIdentity(t *testing.T) {
	var mu sync.Mutex
	ran := map[string]core.Result{} // by cache key; a re-run after Delete reuses it
	e := NewEngine(Config{Workers: 2, RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
		ex, _ := core.ByID(id)
		mu.Lock()
		defer mu.Unlock()
		res, ok := ran[ex.CacheKey(p)]
		if !ok {
			var err error
			if res, err = runRegistry(ctx, id, p); err != nil {
				return res, err
			}
			ran[ex.CacheKey(p)] = res
		}
		return res, nil
	}})
	defer e.Close()
	h := e.Handler()
	sawAmpersand := false
	for _, ex := range core.Registry() {
		variants := []core.Params{nil}
		if len(ex.Params) > 0 {
			first := ex.Params[0]
			variants = append(variants, core.Params{first.Name: first.Default}, nonDefault(ex))
		}
		for _, asked := range variants {
			var resolved core.Params
			if asked != nil {
				var err error
				if resolved, err = ex.ResolveParams(asked); err != nil {
					t.Fatalf("%s %v: %v", ex.ID, asked, err)
				}
			}
			key := ex.CacheKey(resolved)
			e.cache.Delete(key) // the explicit default would otherwise hit the no-param entry
			sawAmpersand = sawAmpersand || bytes.ContainsRune([]byte(key), '&')
			target := "/v1/run/" + ex.ID + query(asked)
			for phase, wantTailAfter := range []bool{false, true, true} {
				rec := serveGET(h, target)
				mu.Lock()
				res := ran[key]
				mu.Unlock()
				checkEnvelope(t, target+" phase "+string(rune('0'+phase)), rec, runEnvelope{
					ID: ex.ID, Params: resolved, Key: key, Class: "interactive", CacheHit: phase > 0,
					Headline: res.Headline, Findings: res.Findings, Report: res.Render()})
				if got := hasTail(e, key); got != wantTailAfter {
					t.Errorf("%s phase %d: tail memoized = %v, want %v", target, phase, got, wantTailAfter)
				}
			}
		}
	}
	if !sawAmpersand {
		t.Error("no variant's key contained '&' — the \\u0026 escape went unchecked")
	}
}

// A runner-only experiment whose ID, findings and report are full of
// characters encoding/json escapes (HTML, quotes, controls, U+2028,
// invalid UTF-8), with a headline.
func TestRunEnvelopeEscaping(t *testing.T) {
	const id = "X<&>\"\\ é\x01"
	headline := 1e-7
	tb := report.NewTable("<b>&amp;</b> \"q\" \\   \xff", "a<b", "c>d")
	tb.AddRow("x & y", "\t1")
	result := core.Result{Table: tb, Headline: &headline, Findings: []string{"<script>", "a & b", "plain"}}
	e := newTestEngine(func(string) (core.Result, error) { return result, nil })
	defer e.Close()
	for phase := 0; phase < 3; phase++ {
		rec := serveGET(e.Handler(), "/run/"+url.PathEscape(id))
		checkEnvelope(t, "escaping", rec, runEnvelope{ID: id, Key: id, Class: "interactive", CacheHit: phase > 0,
			Headline: &headline, Findings: result.Findings, Report: result.Render()})
	}
	if !bytes.Contains([]byte(result.Render()), []byte("<b>")) {
		t.Fatal("the report under test lost its '<' and '>'")
	}
}

// The head's hand-written string and number writers against json.Marshal.
func TestEnvelopeHeadWritersMatchEncodingJSON(t *testing.T) {
	sameFloat := func(f float64) bool {
		want, err := json.Marshal(f)
		got, gotErr := httpapi.AppendJSONFloat(nil, f)
		if err != nil { // NaN/Inf: the same error, nothing appended
			return gotErr != nil && gotErr.Error() == err.Error() && len(got) == 0
		}
		return gotErr == nil && bytes.Equal(got, want)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 42, 1 << 53, 123456789012345678,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-7, -1e-7, 9.99999e-7, 1e-6, 0.000123,
		0.1, 1.5, 1e20, 999999999999999900000, 1e21, -1e21, 1.5e300, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		if !sameFloat(f) {
			want, _ := json.Marshal(f)
			got, _ := httpapi.AppendJSONFloat(nil, f)
			t.Errorf("AppendJSONFloat(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
	if err := quick.Check(func(bits uint64) bool { return sameFloat(math.Float64frombits(bits)) }, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(mant int32, exp int8) bool {
		return sameFloat(float64(mant) * math.Pow(10, float64(exp%30)))
	}, nil); err != nil {
		t.Error(err)
	}
	sameString := func(s string) bool {
		want, _ := json.Marshal(s)
		return bytes.Equal(httpapi.AppendJSONString([]byte("x"), s), append([]byte("x"), want...))
	}
	for _, s := range []string{"", "E7", "E7?bces=64&f=0.99", "<>", `"\`, "\x00\x1f\x7f", "a\nb\tc", "  ",
		"héllo", "\xff\xfe", "interactive", "a\u2028b\u2029", "\b\f\r\v", "é\xe2\x80", "— <&> \xc3"} {
		if !sameString(s) {
			t.Errorf("AppendJSONString(%q) = %s", s, httpapi.AppendJSONString(nil, s))
		}
	}
	if err := quick.Check(sameString, nil); err != nil {
		t.Error(err)
	}
}

// Only a JSON hit renders: warm start, ServeEncoded misses and hits,
// format=bin, text, csv and /batch leave the entry without a tail, and a
// snapshot written after the tail exists carries the payload alone.
func TestTailBuiltOnlyByJSONHit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tier2.snap")
	e := NewEngine(Config{Workers: 2, SnapshotPath: path})
	h := e.Handler()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.ServeEncoded(ctx, "E7", nil); err != nil {
			t.Fatal(err)
		}
		e.ServeEncodedBatchInto(ctx, []BatchItem{{ID: "E7"}, {ID: "E5"}}, nil)
		for _, f := range []string{"bin", "text", "csv"} {
			if rec := serveGET(h, "/run/E7?format="+f); rec.Code != http.StatusOK {
				t.Fatalf("format=%s: %d", f, rec.Code)
			}
		}
	}
	if rec := serveGET(h, "/run/E1"); rec.Code != http.StatusOK { // a JSON miss
		t.Fatalf("JSON miss: %d", rec.Code)
	}
	for _, key := range []string{"E7", "E5", "E1"} {
		if hasTail(e, key) {
			t.Errorf("%s has a tail before any JSON hit", key)
		}
	}
	payload, _ := e.cache.Get("E7")
	payload = bytes.Clone(payload)
	serveGET(h, "/run/E7")
	if !hasTail(e, "E7") {
		t.Fatal("a JSON hit did not memoize the tail")
	}
	// The other formats and /batch still see the payload only.
	if rec := serveGET(h, "/run/E7?format=bin"); !bytes.Equal(rec.Body.Bytes(), payload) {
		t.Error("format=bin body is not the payload after the tail was attached")
	}
	if out := e.ServeEncodedBatchInto(ctx, []BatchItem{{ID: "E7"}}, nil); !bytes.Equal(out[0].RawResponse.Raw, payload) {
		t.Error("batch payload changed after the tail was attached")
	}
	if err := e.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	kvs, err := ReadSnapshotFile(path)
	if err != nil || len(kvs) != 3 {
		t.Fatalf("snapshot: %d entries, %v; want 3", len(kvs), err)
	}
	for _, kv := range kvs {
		if kv.Key == "E7" && !bytes.Equal(kv.Val, payload) {
			t.Error("snapshot value for E7 is not the bare payload")
		}
	}
	e2 := NewEngine(Config{Workers: 2, SnapshotPath: path})
	defer e2.Close()
	if s := e2.Metrics().Snapshot; s.Loaded != 3 || s.Skipped != 0 {
		t.Fatalf("warm start loaded %d, skipped %d; want 3, 0", s.Loaded, s.Skipped)
	}
	if hasTail(e2, "E7") {
		t.Error("warm start produced a tail")
	}
	res, _ := core.DecodeResult(payload)
	checkEnvelope(t, "after restart", serveGET(e2.Handler(), "/run/E7"), runEnvelope{ID: "E7", Key: "E7",
		Class: "interactive", CacheHit: true, Headline: res.Headline, Findings: res.Findings, Report: res.Render()})
}

// JSON, bin, text and /batch requests race from cold at the same keys
// while Delete keeps dropping entries under them: every JSON body is
// still the reference envelope (a tail never outlives or mismatches its
// payload) and the per-class books balance. Run under -race in CI.
func TestEnvelopeHammerConservation(t *testing.T) {
	type target struct {
		id     string
		params core.Params
		want   runEnvelope
	}
	var targets []target
	for _, id := range []string{"E7", "E5", "E1"} {
		ex, _ := core.ByID(id)
		for _, asked := range []core.Params{nil, nonDefault(ex)} {
			res, resolved, err := ex.RunWith(context.Background(), asked)
			if err != nil {
				t.Fatal(err)
			}
			if asked == nil {
				resolved = nil
			}
			targets = append(targets, target{id, asked, runEnvelope{ID: id, Params: resolved, Key: ex.CacheKey(resolved),
				Headline: res.Headline, Findings: res.Findings, Report: res.Render()}})
		}
	}
	e := NewEngine(Config{Shards: 2, Workers: 2})
	defer e.Close()
	h := e.Handler()
	const goroutines, rounds = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tg := targets[(g+i)%len(targets)]
				path := "/v1/run/" + tg.id + query(tg.params)
				sep := "?"
				if tg.params != nil {
					sep = "&"
				}
				switch (g + i/len(targets)) % 5 {
				case 0, 1:
					req := httptest.NewRequest(http.MethodGet, path, nil)
					want := tg.want
					want.Class = admit.Classes()[i%2].String()
					req.Header.Set(admit.HeaderClass, want.Class)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					var got runEnvelope
					_ = json.Unmarshal(rec.Body.Bytes(), &got) // checkEnvelope reports a bad body
					want.CacheHit, want.Shared = got.CacheHit, got.Shared
					checkEnvelope(t, path, rec, want)
				case 2:
					if rec := serveGET(h, path+sep+"format=bin"); rec.Code != http.StatusOK {
						t.Errorf("bin %s: %d", path, rec.Code)
					}
				case 3:
					if rec := serveGET(h, path+sep+"format=text"); rec.Body.String() != tg.want.Report {
						t.Errorf("text %s differs from Render()", path)
					}
				case 4:
					for _, o := range e.ServeEncodedBatchInto(context.Background(),
						[]BatchItem{{ID: tg.id, Params: tg.params, Class: admit.Batch}, {ID: "E7"}}, nil) {
						if o.Err != nil {
							t.Errorf("batch: %v", o.Err)
						}
					}
				}
				if i%16 == g {
					e.cache.Delete(tg.want.Key)
				}
			}
		}(g)
	}
	wg.Wait()
	m := e.Metrics()
	for _, class := range admit.Classes() {
		cm := m.Classes[class.String()]
		if err := cm.Balance(); err != nil || cm.Requests == 0 {
			t.Errorf("%s: %d requests, books: %v", class, cm.Requests, err)
		}
	}
}
