package sweep

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// countingEngine serves registered IDs through a fake runner that counts
// executions and emits a findings-only result whose headline number is
// derived from the assignment — cheap, deterministic, and exercises the
// findings-only memoization path end to end.
func countingEngine(execs *atomic.Int64) *serve.Engine {
	return serve.NewEngine(serve.Config{
		Shards:  4,
		Workers: 4,
		RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
			execs.Add(1)
			sum := 0.0
			for _, name := range p.SortedNames() {
				sum += p[name]
			}
			return core.Result{Findings: []string{
				fmt.Sprintf("%.4f is the metric for %s", sum, id),
			}}, nil
		},
	})
}

func TestParseAxisForms(t *testing.T) {
	cases := []struct {
		in   string
		want []float64
	}{
		{"gens=4", []float64{4}},
		{"gens=2,4,8", []float64{2, 4, 8}},
		{"gens=2:8:2", []float64{2, 4, 6, 8}},
		{"gens=2:7:2", []float64{2, 4, 6}},
		{"f=0.9:0.99:0.03", []float64{0.9, 0.93, 0.96, 0.99}},
		{"f=0.5:0.5:0.1", []float64{0.5}},
	}
	for _, c := range cases {
		ax, err := ParseAxis(c.in)
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", c.in, err)
			continue
		}
		if len(ax.Values) != len(c.want) {
			t.Errorf("ParseAxis(%q) = %v, want %v", c.in, ax.Values, c.want)
			continue
		}
		for i, v := range ax.Values {
			if diff := v - c.want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("ParseAxis(%q)[%d] = %v, want %v", c.in, i, v, c.want[i])
			}
		}
	}
	for _, bad := range []string{
		"", "gens", "gens=", "=4", "gens=a", "gens=1:2", "gens=1:2:3:4",
		"gens=2:8:0", "gens=2:8:-1", "gens=8:2:1", "gens=1,x,3",
	} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q): want error", bad)
		}
	}
}

// A fat-fingered step must be rejected before the axis materializes —
// not after expanding billions of values.
func TestParseAxisBoundsRangeExpansion(t *testing.T) {
	start := make(chan error, 1)
	go func() {
		_, err := ParseAxis("f=0.5:0.9999:1e-12")
		start <- err
	}()
	select {
	case err := <-start:
		if err == nil || !strings.Contains(err.Error(), "expands past") {
			t.Fatalf("want expansion-bound error, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ParseAxis is materializing an unbounded range")
	}
	// Exactly MaxPoints values is still fine.
	ax, err := ParseAxis(fmt.Sprintf("x=1:%d:1", MaxPoints))
	if err != nil {
		t.Fatalf("MaxPoints-sized axis rejected: %v", err)
	}
	if len(ax.Values) != MaxPoints {
		t.Fatalf("got %d values, want %d", len(ax.Values), MaxPoints)
	}
}

// The grid cap must be enforced while axes parse, not after: each range
// axis can materialize MaxPoints values from a ~15-byte spec, so a body
// full of maximal axes would otherwise amplify into per-axis maxima
// across every axis before Validate ever saw the grid.
func TestParseSpecBoundsCrossAxisExpansion(t *testing.T) {
	axes := make([]string, 64)
	for i := range axes {
		axes[i] = fmt.Sprintf("x%d=1:%d:1", i, MaxPoints)
	}
	_, err := ParseSpec("E7", axes)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want grid-cap error, got %v", err)
	}
}

// ParseFloat accepts "NaN" and "Inf"; with a NaN bound every range guard
// compares false, which used to turn the expansion loop into an unbounded
// append (remotely triggerable via POST /sweep). Non-finite bounds must be
// rejected up front, in bounded time.
func TestParseAxisRejectsNonFiniteRange(t *testing.T) {
	for _, bad := range []string{
		"f=NaN:1:0.1", "f=0:NaN:0.1", "f=0:1:NaN",
		"f=Inf:1:0.1", "f=0:Inf:0.1", "f=0:1:Inf",
		"f=-Inf:1:0.1", "f=nan:nan:nan",
		// Scalar and list forms must reject non-finite values too (found
		// by FuzzParseAxis): no declared parameter admits them, so they
		// must fail at parse, not ride to schema validation.
		"f=NaN", "f=Inf", "f=-Inf", "f=1,NaN,3", "f=Inf,2",
	} {
		done := make(chan error, 1)
		go func() {
			_, err := ParseAxis(bad)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("ParseAxis(%q): want error", bad)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ParseAxis(%q) did not return (unbounded expansion)", bad)
		}
	}
}

func TestGridRowMajorOrder(t *testing.T) {
	sp := Spec{ID: "E7", Axes: []Axis{
		{Name: "f", Values: []float64{0.9, 0.95}},
		{Name: "bces", Values: []float64{64, 128, 256}},
	}}
	grid := sp.Grid()
	if len(grid) != 6 {
		t.Fatalf("grid size = %d, want 6", len(grid))
	}
	want := []core.Params{
		{"f": 0.9, "bces": 64}, {"f": 0.9, "bces": 128}, {"f": 0.9, "bces": 256},
		{"f": 0.95, "bces": 64}, {"f": 0.95, "bces": 128}, {"f": 0.95, "bces": 256},
	}
	for i, p := range grid {
		if p["f"] != want[i]["f"] || p["bces"] != want[i]["bces"] {
			t.Fatalf("grid[%d] = %v, want %v", i, p, want[i])
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]Spec{
		"unknown experiment": {ID: "E99", Axes: []Axis{{Name: "x", Values: []float64{1}}}},
		"no axes":            {ID: "E7"},
		"unknown param":      {ID: "E7", Axes: []Axis{{Name: "zap", Values: []float64{1}}}},
		"duplicate axis": {ID: "E7", Axes: []Axis{
			{Name: "f", Values: []float64{0.9}}, {Name: "f", Values: []float64{0.95}}}},
		"empty axis":         {ID: "E7", Axes: []Axis{{Name: "f", Values: nil}}},
		"out-of-range value": {ID: "E7", Axes: []Axis{{Name: "f", Values: []float64{0.1}}}},
		"non-integer int":    {ID: "E7", Axes: []Axis{{Name: "bces", Values: []float64{64.5}}}},
		"zero-param exp":     {ID: "T2", Axes: []Axis{{Name: "x", Values: []float64{1}}}},
	}
	for name, sp := range cases {
		if _, err := sp.Validate(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	big := Spec{ID: "E7", Axes: []Axis{
		{Name: "f", Values: make([]float64, 100)},
		{Name: "bces", Values: make([]float64, 100)},
	}}
	for i := range big.Axes[0].Values {
		big.Axes[0].Values[i] = 0.9
	}
	for i := range big.Axes[1].Values {
		big.Axes[1].Values[i] = 64
	}
	if _, err := big.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized grid: got %v", err)
	}
}

// Acceptance criterion: repeat sweeps are served from cache — across any
// number of sweep invocations, each unique grid point executes exactly
// once.
func TestSweepExecutesEachUniquePointOnce(t *testing.T) {
	var execs atomic.Int64
	eng := countingEngine(&execs)
	defer eng.Close()

	sp, err := ParseSpec("E7", []string{"f=0.9:0.99:0.03", "bces=64,256"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), eng, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Points != 8 {
		t.Fatalf("points = %d, want 8 (4 f-values x 2 bces)", first.Points)
	}
	if got := execs.Load(); got != 8 {
		t.Fatalf("cold sweep executions = %d, want 8", got)
	}
	second, err := Run(context.Background(), eng, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 8 {
		t.Fatalf("executions after repeat sweep = %d, want 8 (one per unique point)", got)
	}
	if second.CacheHits != 8 {
		t.Fatalf("repeat sweep cache hits = %d, want 8", second.CacheHits)
	}
	// An overlapping grid executes only its new points. Overlap on the
	// range endpoints, which parse to the exact same float both times.
	overlap, err := ParseSpec("E7", []string{"f=0.9,0.99", "bces=256,512"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eng, overlap, nil); err != nil {
		t.Fatal(err)
	}
	// Shared points: (0.9,256) and (0.99,256); new: (0.9,512), (0.99,512).
	if got := execs.Load(); got != 10 {
		t.Fatalf("executions after overlapping sweep = %d, want 10", got)
	}
}

// The aggregate is deterministic: identical table and findings cold vs
// fully cached, and points stream in grid order.
func TestSweepDeterministicAndOrdered(t *testing.T) {
	var execs atomic.Int64
	eng := countingEngine(&execs)
	defer eng.Close()

	sp, err := ParseSpec("E7", []string{"f=0.9,0.95", "bces=64,128,256"})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	cold, err := Run(context.Background(), eng, sp, func(pt Point) error {
		order = append(order, pt.Index)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range order {
		if i != idx {
			t.Fatalf("stream order %v not grid order", order)
		}
	}
	warm, err := Run(context.Background(), eng, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Aggregate.Render() != warm.Aggregate.Render() {
		t.Fatalf("aggregate differs cold vs cached:\n%s\nvs\n%s",
			cold.Aggregate.Render(), warm.Aggregate.Render())
	}
	if cold.Aggregate.Table == nil || len(cold.Aggregate.Table.Rows) != 6 {
		t.Fatalf("aggregate table should have 6 rows: %+v", cold.Aggregate.Table)
	}
	if cold.Aggregate.Figure == nil || len(cold.Aggregate.Figure.Series) != 2 {
		t.Fatalf("2-axis sweep should yield one series per leading-axis value")
	}
	// The fake runner's headline is the sum of its params, so the figure's
	// first series must be f=0.9's three points.
	s0 := cold.Aggregate.Figure.Series[0]
	if s0.Name != "f=0.9" || len(s0.Points) != 3 {
		t.Fatalf("series[0] = %s with %d points", s0.Name, len(s0.Points))
	}
	if s0.Points[0].Y != 64.9 {
		t.Fatalf("headline for (0.9, 64) = %v, want 64.9", s0.Points[0].Y)
	}
	// A leading-axis value listed twice keeps one series: its two runs of
	// the last axis merge, in grid order.
	dup, err := ParseSpec("E7", []string{"f=0.9,0.9", "bces=64,128"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), eng, dup, nil)
	if err != nil {
		t.Fatal(err)
	}
	fig := sum.Aggregate.Figure
	if fig == nil || len(fig.Series) != 1 || fig.Series[0].Name != "f=0.9" || len(fig.Series[0].Points) != 4 {
		t.Fatalf("f=0.9,0.9 should merge into one 4-point series: %+v", fig)
	}
	if p := fig.Series[0].Points; p[0].X != 64 || p[1].X != 128 || p[2].X != 64 || p[3].X != 128 {
		t.Fatalf("merged series out of grid order: %v", p)
	}
}

// A real registered experiment sweeps end to end through the registry
// runner, producing per-point results and a combined table.
func TestSweepRealExperiment(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Workers: 2})
	defer eng.Close()

	sp, err := ParseSpec("E1", []string{"gens=2:6:2"})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Run(context.Background(), eng, sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Points != 3 {
		t.Fatalf("points = %d, want 3", sum.Points)
	}
	ren := sum.Aggregate.Render()
	if !strings.Contains(ren, "sweep E1: 3 points over gens") {
		t.Fatalf("aggregate missing title:\n%s", ren)
	}
	// Default point (gens=6) must share the zero-param cache entry.
	if resp, err := eng.ServeWith(context.Background(), "E1", nil); err != nil || !resp.CacheHit {
		t.Fatalf("Serve(E1) after sweep: hit=%v err=%v", resp.CacheHit, err)
	}
	if sum.Aggregate.Figure == nil {
		t.Fatal("1-axis sweep should yield a figure")
	}
}

// Once a sweep is doomed (emit failure — e.g. the NDJSON client hung
// up), queued points must be skipped rather than executed for nobody.
func TestSweepAbortSkipsQueuedPoints(t *testing.T) {
	var execs atomic.Int64
	eng := serve.NewEngine(serve.Config{
		Shards:  4,
		Workers: 1,
		RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
			execs.Add(1)
			return core.Result{Findings: []string{"x 1"}}, nil
		},
	})
	defer eng.Close()

	sp, err := ParseSpec("E1", []string{"gens=1:12:1"})
	if err != nil {
		t.Fatal(err)
	}
	sp.Parallelism = 1
	wantErr := fmt.Errorf("client went away")
	_, err = Run(context.Background(), eng, sp, func(pt Point) error { return wantErr })
	if err == nil || !strings.Contains(err.Error(), "client went away") {
		t.Fatalf("Run error = %v", err)
	}
	// Parallelism 1 is waves of two: the wave whose first point failed to
	// emit ran, and no later wave was shipped.
	if got := execs.Load(); got != 2 {
		t.Fatalf("aborted sweep executed %d of 12 points, want the first wave's 2", got)
	}
}

// Parallelism reaches Run straight from the POST /sweep body and sizes
// each wave's batch call, so it must be clamped — an absurd value must
// neither fail nor materialize absurd concurrency.
func TestSweepClampsParallelism(t *testing.T) {
	var execs atomic.Int64
	eng := countingEngine(&execs)
	defer eng.Close()

	sp, err := ParseSpec("E1", []string{"gens=1,2"})
	if err != nil {
		t.Fatal(err)
	}
	sp.Parallelism = 1 << 30
	before := runtime.NumGoroutine()
	sum, err := Run(context.Background(), eng, sp, nil)
	if err != nil {
		t.Fatalf("Run with huge Parallelism: %v", err)
	}
	if sum.Points != 2 {
		t.Fatalf("points = %d, want 2", sum.Points)
	}
	if after := runtime.NumGoroutine(); after > before+2*maxParallelism {
		t.Fatalf("goroutines grew %d -> %d; Parallelism not clamped", before, after)
	}
}

// An experiment-declared headline wins over the first-number fallback:
// E3's first finding leads with the fanout parameter itself, but its
// declared headline is the measured fraction.
func TestHeadlinePrefersDeclaredMetric(t *testing.T) {
	e, _ := core.ByID("E1")
	res, _, err := e.RunWith(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline == nil {
		t.Fatal("E1 should declare a headline")
	}
	h, ok := Headline(res)
	if !ok || h != *res.Headline {
		t.Fatalf("Headline = %v,%v want declared %v", h, ok, *res.Headline)
	}
	// The fallback would have returned 6 (the gens echo in the first
	// finding); the declared headline is the power gap, which is not.
	if h == 6 {
		t.Fatal("Headline returned the parameter echo, not the metric")
	}
}

func TestHeadline(t *testing.T) {
	cases := []struct {
		finding string
		want    float64
		ok      bool
	}{
		{"transistors at gen 6: 64x (paper: 2x per generation holds)", 6, true},
		{"speedup 12.5x at r=4", 12.5, true},
		{"ratio 1.2e3 holds", 1.2e3, true},
		{"no numbers here", 0, false},
	}
	for _, c := range cases {
		got, ok := Headline(core.Result{Findings: []string{c.finding}})
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Headline(%q) = %v,%v want %v,%v", c.finding, got, ok, c.want, c.ok)
		}
	}
	if _, ok := Headline(core.Result{}); ok {
		t.Error("Headline of empty result should be false")
	}
}
