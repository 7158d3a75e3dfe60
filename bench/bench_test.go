package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload for 200 ms in both modes with every
// output check on, and validates the result line's schema, the metric
// names and counts, the written files and a clean teardown. Nothing here
// depends on how fast the machine is.
func TestSmoke(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the contract allows 16 and 128", len(endToEnd), len(perLayer))
	}
	dir := t.TempDir()
	for _, wl := range workloadSpecs {
		for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", wl.Name, "--seed", "7", "--seconds", "0.2",
				"--trace", strconv.Itoa(trace), "--out-dir", dir}
			// realMain exits 4 when goroutines outlive the teardown and 1
			// when any output check fails.
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace %d: exit %d\n%s", wl.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var raw map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
				t.Fatalf("%s trace %d: last line is not JSON: %v", wl.Name, trace, err)
			}
			if len(raw) != 4 {
				t.Errorf("%s trace %d: result line has keys %v, want correct, attempted, failed, metrics", wl.Name, trace, raw)
			}
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace %d: correct %v attempted %d failed %d", wl.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(specs) {
				t.Errorf("%s trace %d: %d metrics printed, table has %d", wl.Name, trace, len(line.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want a finite value in %s", wl.Name, trace, m.Name, got, ok, m.Unit)
				}
			}
			var res result
			buf, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%s.trace%d.json", wl.Name, trace)))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(buf, &res); err != nil || res.Workload != wl.Name || res.Clients < 1 {
				t.Errorf("%s trace %d: -json file: %v, %+v", wl.Name, trace, err, res)
			}
			if trace == 1 {
				checkSpans(t, filepath.Join(dir, wl.Name+".spans.ndjson"))
			}
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s struct {
			Name         string
			Start_ns     int64
			End_ns       int64
			Span, Parent uint64
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil || s.End_ns < s.Start_ns || s.Span == 0 {
			t.Fatalf("%s: bad span line %q: %v", path, sc.Text(), err)
		}
		names[s.Name]++
	}
	if names["client"] == 0 {
		t.Errorf("%s: no client spans (%v)", path, names)
	}
}

// TestTables checks the metric and workload tables against the
// contract's limits and against BENCHMARK.json.
func TestTables(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range perLayer {
		if m.Moves == "" {
			t.Errorf("%s: no end-to-end metric and workload named for it to move", m.Name)
		}
	}
	var maxBound float64
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range endToEnd {
		if m.Name == mSetup && (m.Bound != maxBound || m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound: %+v", m)
		}
	}

	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Command) == 0 {
		t.Errorf("BENCHMARK.json: paths %v run_seconds %d command %v", bj.Paths, bj.RunSeconds, bj.Command)
	}
	// 4 + 22 x workloads runs, each run_seconds plus set-up, teardown and
	// the no-op rebuild (budgeted at 6 s), must fit the driver's 3420 s
	// with room for two cold builds.
	if total := (4 + 22*len(bj.Workloads)) * (bj.RunSeconds + 6); total > 3420-300 {
		t.Errorf("BENCHMARK.json: %d s of runs leaves no room for the builds", total)
	}
	if len(bj.Workloads) != len(workloadSpecs) || len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d workloads, %d end-to-end, %d per-layer rows; the tables have %d, %d, %d",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer), len(workloadSpecs), len(endToEnd), len(perLayer))
	}
	for i, w := range workloadSpecs {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why || len(w.Why) > 200 {
			t.Errorf("BENCHMARK.json workload %d = %+v, table has %+v", i, bj.Workloads[i], w)
		}
	}
	for i, m := range endToEnd {
		if g := bj.EndToEnd[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound {
			t.Errorf("BENCHMARK.json end_to_end %d = %+v, table has %+v", i, g, m)
		}
	}
	for i, m := range perLayer {
		if g := bj.PerLayer[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("BENCHMARK.json per_layer %d = %+v, table has %+v", i, g, m)
		}
	}
}

// TestKeySets pins the sizes of the copied key sets and that golden
// gives every variant a distinct cache key.
func TestKeySets(t *testing.T) {
	for name, c := range map[string]struct {
		set  []variant
		want int
	}{"hot": {hotSet(), 16}, "scatter": {scatterSet(), 59}} {
		if err := golden(c.set); err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, v := range c.set {
			keys[v.Key] = true
			if len(v.Raw) == 0 || v.Report == "" {
				t.Errorf("%s: %s has no golden output", name, v.Key)
			}
		}
		if len(keys) != c.want {
			t.Errorf("%s set has %d distinct keys, want %d", name, len(keys), c.want)
		}
	}
}

// TestColdGridNeverRepeats checks that sweep-cold's grids are valid
// against E7's schema and share no point across calls or seeds' worst
// cases (the last call allowed).
func TestColdGridNeverRepeats(t *testing.T) {
	g := newColdGrid(3)
	seen := map[string]int{}
	for _, k := range []int{0, 1, 2, 249, 250, 251, 5000, coldMaxCalls / 2, coldMaxCalls - 1} {
		sp, err := g.spec(k)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := sp.Validate()
		if err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
		grid := sp.Grid()
		if len(grid) != coldPoints {
			t.Fatalf("call %d: %d points", k, len(grid))
		}
		for _, p := range grid {
			resolved, err := exp.ResolveParams(p)
			if err != nil {
				t.Fatal(err)
			}
			key := exp.CacheKey(resolved)
			if prev, dup := seen[key]; dup {
				t.Fatalf("point %s of call %d was already in call %d", key, k, prev)
			}
			seen[key] = k
		}
	}
}

// TestSelfTimesTelescope drives the tracer with a synthetic request whose
// front-end fans out to two overlapping backend calls: the self times
// must add up to the client span, and the overlap must be counted once.
func TestSelfTimesTelescope(t *testing.T) {
	tr := newTracer()
	var clock int64
	tr.clock = func() int64 { return clock }
	clock = 0
	client := tr.start(spClient, 1, 0, nil)
	clock = 10_000
	front := tr.start(spFrontend, 1, client.s.ID, nil)
	clock = 20_000
	b1 := tr.start(spBackend, 0, 0, front)
	clock = 30_000
	b2 := tr.start(spBackend, 0, 0, front)
	clock = 60_000
	b1.end()
	clock = 80_000
	b2.end()
	clock = 90_000
	front.end()
	clock = 100_000
	client.end()

	self, total := tr.selfTimes()
	var sum float64
	for _, s := range self {
		sum += s
	}
	if math.Abs(sum-total) > 1e-6 || total != 100_000 {
		t.Fatalf("self times %v sum to %v, client total %v", self, sum, total)
	}
	// The front-end span is 80 us of which 60 us (20..80, the union of
	// the two calls) is covered: 20 us of self time, not the -10 us that
	// subtracting both calls' 90 us would give.
	if self[spClient] != 20_000 || self[spFrontend] != 20_000 || self[spBackend] != 60_000 {
		t.Errorf("self times %v, want client 20000, front-end 20000, backend 60000", self)
	}
}

// TestBetterQuartile pins which side of its slices a run is read off: a
// slow phase covering half the slices must not move the value.
func TestBetterQuartile(t *testing.T) {
	rates := []float64{12, 12, 12, 12, 8, 8, 8, 8} // ops/s: upper quartile
	if got := betterQuartile(rates, true); got != 12 {
		t.Errorf("rate: got %v, want 12", got)
	}
	times := []float64{100, 100, 100, 100, 150, 150, 150, 150} // us: lower quartile
	if got := betterQuartile(times, false); got != 100 {
		t.Errorf("time: got %v, want 100", got)
	}
	if got := betterQuartile(nil, true); got != 0 {
		t.Errorf("no slices: got %v, want 0", got)
	}
}

// TestCompareVerdicts pins -compare's three verdicts.
func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) side {
		var rs []*result
		for _, v := range vals {
			r := &result{}
			r.Metrics = map[string]metricValue{mOps: {Value: v}}
			rs = append(rs, r)
		}
		return newSide(rs, mOps)
	}
	ops := endToEnd[0] // ops_per_s, higher is better
	for _, c := range []struct {
		name string
		a, b side
		want string
	}{
		{"same", mk(100, 101, 102), mk(100, 101, 103), "ok"},
		{"small loss inside the bound", mk(100, 101, 102), mk(95, 96, 97), "ok"},
		{"loss beyond the bound", mk(100, 101, 102), mk(70, 71, 72), "worse"},
		{"noisy sides overlap", mk(60, 100, 140), mk(55, 95, 150), "unresolved"},
		{"noisy but every new run better", mk(60, 100, 140), mk(150, 200, 260), "ok"},
	} {
		if got, _ := verdict(ops, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
