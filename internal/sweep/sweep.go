// Package sweep fans a parameter grid out over the serving engine: it
// parses axis specifications ("f=0.9:0.99:0.03", "bces=64,256", "gens=8"),
// expands their cross product in row-major order (first axis slowest),
// serves the grid in waves through the engine's (or the router's) batched
// multi-get — so each point is validated against the experiment's
// declared schema, memoized under a params-folded cache key, deduplicated
// by singleflight, and admitted as batch class through the engine's QoS
// scheduler (a sweep can never starve interactive traffic) — and
// aggregates the per-point results into one combined report.Table (plus a
// report.Figure for 1- and 2-axis sweeps).
// Points stream to the caller in grid order, wave by wave, which is what
// cmd/arch21's sweep subcommand prints and what the POST /sweep NDJSON
// endpoint writes line by line. The whole pipeline is
// deterministic: the same spec always yields the same grid, the same
// per-point results, and the same aggregate, whether served cold or from
// cache.
package sweep

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/serve"
)

// MaxPoints bounds a single sweep's grid so a fat-fingered step cannot
// queue an unbounded amount of work.
const MaxPoints = 4096

// defaultParallelism is Spec.Parallelism when the caller sets none: waves
// of 2*32 = 64 points per batch call, so a 64-point grid is one fan-out
// and one join on the server. The engine's scheduler (its Workers) bounds
// the points computing at once; a wave only sets how many one sweep hands
// the server per call, and how many it waits for before the first streams.
const defaultParallelism = 32

// maxParallelism clamps Spec.Parallelism, which reaches Run straight from
// the POST /sweep body and sizes each wave's batch call.
const maxParallelism = 64

// Axis is one swept parameter: a name and the ordered values it takes.
type Axis struct {
	// Name is the experiment parameter the axis varies.
	Name string
	// Values are the axis points, in sweep order.
	Values []float64
}

// Spec is a full sweep specification: the experiment and the axes whose
// cross product forms the grid. Axis order is significant — the first
// axis varies slowest.
type Spec struct {
	// ID is the experiment to sweep.
	ID string
	// Axes are the swept parameters.
	Axes []Axis
	// Parallelism sizes the waves the grid is served in: 2*Parallelism
	// points per batch call (default 32, at most 64). It does not bound
	// the points in flight; the server's workers do.
	Parallelism int
}

// ParseAxis parses one axis assignment. Accepted value forms:
//
//	name=lo:hi:step   inclusive range (step > 0)
//	name=a,b,c        explicit list
//	name=v            single value (a one-point axis)
func ParseAxis(s string) (Axis, error) {
	name, val, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" || strings.TrimSpace(val) == "" {
		return Axis{}, fmt.Errorf("sweep: bad axis %q (want name=value, name=a,b,c, or name=lo:hi:step)", s)
	}
	ax := Axis{Name: name}
	switch {
	case strings.Contains(val, ":"):
		parts := strings.Split(val, ":")
		if len(parts) != 3 {
			return Axis{}, fmt.Errorf("sweep: bad range %q (want lo:hi:step)", val)
		}
		lo, err := core.ParseParamValue(parts[0])
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: bad range start in %q: %v", s, err)
		}
		hi, err := core.ParseParamValue(parts[1])
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: bad range end in %q: %v", s, err)
		}
		step, err := core.ParseParamValue(parts[2])
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: bad range step in %q: %v", s, err)
		}
		// NaN bounds make every comparison below false, which would turn
		// the expansion loop into an unbounded append; ParseFloat accepts
		// "NaN"/"Inf", so reject non-finite values before expanding.
		for _, v := range [...]float64{lo, hi, step} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Axis{}, fmt.Errorf("sweep: range bounds must be finite in %q", s)
			}
		}
		if step <= 0 {
			return Axis{}, fmt.Errorf("sweep: step must be > 0 in %q", s)
		}
		if hi < lo {
			return Axis{}, fmt.Errorf("sweep: empty range %q (hi < lo)", s)
		}
		// Bound the expansion here, not just at Validate: a fat-fingered
		// step must fail before materializing the axis, or a single
		// request could chew through unbounded memory.
		if hi-lo > step*float64(MaxPoints) {
			return Axis{}, fmt.Errorf("sweep: range %q expands past %d values", s, MaxPoints)
		}
		// Index-based stepping avoids accumulation error; the tolerance
		// admits an endpoint that float arithmetic lands a few ulps past
		// (clamped to hi so repeat sweeps key identically) without
		// admitting a genuine extra step. The i <= MaxPoints bound is a
		// backstop: the range guard above should already keep expansion
		// under it.
		for i := 0; i <= MaxPoints; i++ {
			v := lo + float64(i)*step
			if v > hi+step*1e-9 {
				break
			}
			if v > hi {
				v = hi
			}
			ax.Values = append(ax.Values, v)
		}
	case strings.Contains(val, ","):
		for _, part := range strings.Split(val, ",") {
			v, err := core.ParseParamValue(part)
			if err != nil {
				return Axis{}, fmt.Errorf("sweep: bad list value in %q: %v", s, err)
			}
			ax.Values = append(ax.Values, v)
		}
	default:
		v, err := core.ParseParamValue(val)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: bad value in %q: %v", s, err)
		}
		ax.Values = []float64{v}
	}
	// Ranges reject non-finite bounds above; list and scalar axes must
	// too — ParseFloat accepts "NaN"/"Inf", no declared parameter admits
	// them (ParamSpec.Check requires finite), and a NaN would otherwise
	// ride as far as schema validation before failing (found by
	// FuzzParseAxis).
	for _, v := range ax.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Axis{}, fmt.Errorf("sweep: values must be finite in %q", s)
		}
	}
	return ax, nil
}

// ParseSpec builds a Spec from an experiment ID and axis assignments (one
// "name=..." string per axis, in sweep order).
func ParseSpec(id string, axes []string) (Spec, error) {
	sp := Spec{ID: id}
	points := 1
	for _, s := range axes {
		ax, err := ParseAxis(s)
		if err != nil {
			return Spec{}, err
		}
		// Enforce the grid cap incrementally, before parsing the next
		// axis: each range axis can materialize up to MaxPoints values
		// from a ~15-byte spec (a >2000x request-to-memory
		// amplification), so waiting for Validate would let a small
		// request body allocate per-axis maxima across many axes first.
		points *= len(ax.Values)
		if points > MaxPoints {
			return Spec{}, fmt.Errorf("sweep: grid exceeds %d points", MaxPoints)
		}
		sp.Axes = append(sp.Axes, ax)
	}
	return sp, nil
}

// Validate checks the spec against the experiment's declared schema:
// every axis must name a declared parameter exactly once, every value
// must pass the parameter's range/kind/step check, and the grid must fit
// under MaxPoints.
func (sp Spec) Validate() (core.Experiment, error) {
	e, ok := core.ByID(sp.ID)
	if !ok {
		return core.Experiment{}, fmt.Errorf("sweep: unknown experiment %q", sp.ID)
	}
	if len(sp.Axes) == 0 {
		return core.Experiment{}, fmt.Errorf("sweep: %s: no axes (give at least one -param)", sp.ID)
	}
	seen := map[string]bool{}
	points := 1
	for _, ax := range sp.Axes {
		spec, ok := e.Spec(ax.Name)
		if !ok {
			return core.Experiment{}, fmt.Errorf("sweep: experiment %s has no parameter %q (schema: %s)",
				sp.ID, ax.Name, e.SchemaString())
		}
		if seen[ax.Name] {
			return core.Experiment{}, fmt.Errorf("sweep: axis %s given twice", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return core.Experiment{}, fmt.Errorf("sweep: axis %s has no values", ax.Name)
		}
		for _, v := range ax.Values {
			if err := spec.Check(v); err != nil {
				return core.Experiment{}, fmt.Errorf("sweep: %v", err)
			}
		}
		points *= len(ax.Values)
		if points > MaxPoints {
			return core.Experiment{}, fmt.Errorf("sweep: grid exceeds %d points", MaxPoints)
		}
	}
	return e, nil
}

// Grid expands the cross product in row-major order (first axis slowest,
// last axis fastest).
func (sp Spec) Grid() []core.Params {
	n := 1
	for _, ax := range sp.Axes {
		n *= len(ax.Values)
	}
	if len(sp.Axes) == 0 || n == 0 {
		return nil
	}
	grid := make([]core.Params, n)
	for i := range grid {
		p := make(core.Params, len(sp.Axes))
		rem := i
		for a := len(sp.Axes) - 1; a >= 0; a-- {
			ax := sp.Axes[a]
			p[ax.Name] = ax.Values[rem%len(ax.Values)]
			rem /= len(ax.Values)
		}
		grid[i] = p
	}
	return grid
}

// Server is the serving surface a sweep fans out over: a multi-get that
// serves many (experiment, assignment) points in one call. serve.Engine
// satisfies it, and so does router.Router — which is how a POST /sweep
// against a routing front-end lands each grid point on its owning replica,
// one wave becoming one batch exchange per replica instead of a request
// per point. Placement and memoization are those of a single request, so
// exactly-once cluster-wide is preserved.
type Server interface {
	ServeEncodedBatch(ctx context.Context, items []serve.BatchItem) []serve.BatchOutcome
}

// Point is one completed grid point, as streamed to the caller.
type Point struct {
	// Index is the point's position in row-major grid order.
	Index int
	// Key is the engine cache key the point is memoized under.
	Key string
	// Result is the experiment output at this point, as far as a sweep
	// reads it: Headline and Findings. Table and Figure are not decoded
	// and stay nil.
	Result core.Result
	// CacheHit and Shared report how the engine satisfied the point.
	CacheHit bool
	Shared   bool
	// Latency is the point's wall time inside the engine.
	Latency time.Duration
	// More reports that the next point is already computed and follows
	// without a wait on the server: a streaming consumer may hold this
	// point in its buffer. When false, Run is about to wait (or is done)
	// and whatever is buffered should go out now.
	More bool
	// headline is Headline(Result), taken once by Run for the point's
	// line, its aggregate row and its figure point.
	headline    float64
	hasHeadline bool
	// paramsText is the point's axis assignment as its line writes it,
	// built once per sweep by Run (when it has an emit to hand the point
	// to).
	paramsText paramsText
}

// Summary is one completed sweep.
type Summary struct {
	// ID is the swept experiment.
	ID string
	// Points is the grid size.
	Points int
	// CacheHits counts points served straight from the memoizing cache.
	CacheHits int
	// Elapsed is the sweep's wall time.
	Elapsed time.Duration
	// Aggregate is the combined cross-point result: one table row per
	// grid point (plus a figure for 1- and 2-axis sweeps).
	Aggregate core.Result
}

// Run executes the sweep on the server (an engine or a router), streaming
// each completed point to emit (in grid order) and returning the
// aggregate. The grid is served in sequential waves of 2*Parallelism
// points, each wave one ServeEncodedBatch call: within a wave points run
// concurrently (bounded by the server's own miss fan-out and, for cold
// compute, by the engine's admission scheduler), and a wave's points
// stream before the next wave ships, so output is deterministic. A nil
// emit just skips streaming. The first point error aborts the sweep.
//
// Grid points run as batch class (unless ctx carries an explicit class
// already): a sweep is bulk work, and the engine's scheduler must never
// let it starve interactive traffic. When the sweep aborts — a point
// fails, emit errors (the NDJSON client hung up), or ctx itself is
// canceled — the derived context is canceled too, so points the wave
// left executing stop at their next iteration boundary instead of
// grinding to completion: cancellation reaches running work, not just
// queued points.
func Run(ctx context.Context, srv Server, sp Spec, emit func(Point) error) (Summary, error) {
	exp, err := sp.Validate()
	if err != nil {
		return Summary{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	class, tagged := admit.ClassFromContext(ctx)
	if !tagged {
		class = admit.Batch
		ctx = admit.WithClass(ctx, class)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t0 := time.Now()
	grid := sp.Grid()
	par := sp.Parallelism
	if par <= 0 {
		par = defaultParallelism
	}
	if par > maxParallelism {
		par = maxParallelism
	}
	// Twice the parallelism: enough batching to amortize the exchange,
	// small enough that a doomed sweep stops within one wave.
	wave := min(2*par, len(grid))
	sum := Summary{ID: sp.ID, Points: len(grid)}
	points := make([]Point, 0, len(grid))
	items := make([]serve.BatchItem, 0, wave)
	var text paramsText
	if emit != nil {
		text = newParamsText(sp.Axes)
	}
	for lo := 0; lo < len(grid); lo += wave {
		hi := min(lo+wave, len(grid))
		if err := ctx.Err(); err != nil {
			return Summary{}, fmt.Errorf("sweep: %s point %d: %w", sp.ID, lo, err)
		}
		items = items[:0]
		for i := lo; i < hi; i++ {
			items = append(items, serve.BatchItem{ID: sp.ID, Params: grid[i], Class: class})
		}
		for j, out := range srv.ServeEncodedBatch(ctx, items) {
			i := lo + j
			if out.Err != nil {
				return Summary{}, fmt.Errorf("sweep: %s point %d: %w", sp.ID, i, out.Err)
			}
			// Nothing downstream of a sweep reads a point's table or
			// figure, so they are skipped, not decoded.
			res, err := core.DecodeSummary(out.RawResponse.Raw)
			if err != nil {
				return Summary{}, fmt.Errorf("sweep: %s point %d: bad result payload: %w", sp.ID, i, err)
			}
			pt := Point{
				Index:    i,
				Key:      out.RawResponse.Key,
				Result:   res,
				CacheHit: out.RawResponse.CacheHit,
				Shared:   out.RawResponse.Shared,
				Latency:  out.RawResponse.Latency,
				More:     i+1 < hi,
			}
			pt.headline, pt.hasHeadline = Headline(res)
			pt.paramsText = text
			if pt.CacheHit {
				sum.CacheHits++
			}
			if emit != nil {
				if err := emit(pt); err != nil {
					return Summary{}, err
				}
			}
			points = append(points, pt)
		}
	}
	sum.Elapsed = time.Since(t0)
	sum.Aggregate = aggregate(exp, sp, points)
	return sum, nil
}

// firstNumber extracts the leading numeric value from a finding line —
// the fallback "headline" metric when a result does not declare one.
var firstNumber = regexp.MustCompile(`-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?`)

// Headline returns the result's scalar summary metric: the explicitly
// declared Result.Headline when the experiment set one, otherwise the
// first number in the first finding (which can echo a parameter rather
// than a measurement — parameterized experiments should declare).
func Headline(r core.Result) (float64, bool) {
	if r.Headline != nil {
		return *r.Headline, true
	}
	if len(r.Findings) == 0 {
		return 0, false
	}
	m := firstNumber.FindString(r.Findings[0])
	if m == "" {
		return 0, false
	}
	v, err := core.ParseParamValue(m)
	return v, err == nil
}

// axisNames joins the spec's axis names.
func axisNames(axes []Axis) string {
	names := make([]string, len(axes))
	for i, ax := range axes {
		names[i] = ax.Name
	}
	return strings.Join(names, ", ")
}

// aggregate folds the grid's points (all of them, in grid order) into one
// deterministic Result: a table with one row per grid point (axis values,
// headline metric, first finding) and — for 1- and 2-axis sweeps — a
// figure of the headline metric over the last axis, one series per value
// of the leading axis. An axis value is formatted once, not per point.
func aggregate(exp core.Experiment, sp Spec, points []Point) core.Result {
	headers := make([]string, 0, len(sp.Axes)+2)
	text := make([][]string, len(sp.Axes))
	for a, ax := range sp.Axes {
		headers = append(headers, ax.Name)
		text[a] = make([]string, len(ax.Values))
		for k, v := range ax.Values {
			text[a][k] = core.FormatParamValue(v)
		}
	}
	headers = append(headers, "headline", "first finding")
	names := axisNames(sp.Axes)
	tbl := report.NewTable(
		"sweep "+sp.ID+": "+strconv.Itoa(len(points))+" points over "+names, headers...)
	tbl.Rows = make([][]string, 0, len(points))

	var minH, maxH float64
	haveH := false
	cells := make([]string, len(points)*len(headers)) // every row's cells, one allocation
	for i := range points {
		pt := &points[i]
		row := cells[i*len(headers) : (i+1)*len(headers) : (i+1)*len(headers)]
		// Row-major, as Grid expands it: the last axis varies fastest.
		rem := pt.Index
		for a := len(sp.Axes) - 1; a >= 0; a-- {
			row[a] = text[a][rem%len(text[a])]
			rem /= len(text[a])
		}
		if h := pt.headline; pt.hasHeadline {
			if !haveH || h < minH {
				minH = h
			}
			if !haveH || h > maxH {
				maxH = h
			}
			haveH = true
			row[len(sp.Axes)] = report.FormatFloat(h)
		}
		if len(pt.Result.Findings) > 0 {
			row[len(sp.Axes)+1] = pt.Result.Findings[0]
		}
		tbl.Rows = append(tbl.Rows, row)
	}

	res := core.Result{Table: tbl}
	if fig := aggregateFigure(sp, points, text[0]); fig != nil {
		res.Figure = fig
	}
	res.Findings = append(res.Findings,
		sp.ID+" ("+exp.Title+") swept over "+names+": "+strconv.Itoa(len(points))+" points")
	if haveH {
		res.Findings = append(res.Findings,
			"headline metric spans ["+report.FormatFloat(minH)+", "+report.FormatFloat(maxH)+"] across the grid")
	}
	return res
}

// aggregateFigure plots the headline metric for 1- and 2-axis sweeps:
// x is the last axis; a 2-axis sweep gets one series per distinct
// leading-axis value (leadText is that axis as text; a value listed twice
// keeps one series). Wider grids and headline-less results yield none.
func aggregateFigure(sp Spec, points []Point, leadText []string) *report.Figure {
	if len(sp.Axes) > 2 {
		return nil
	}
	xAxis := sp.Axes[len(sp.Axes)-1]
	fig := report.NewFigure("sweep "+sp.ID+": headline metric vs "+xAxis.Name, xAxis.Name, "headline")
	series := map[string]*report.Series{}
	// One run of the last axis per leading-axis value, in grid order.
	nx := len(xAxis.Values)
	for lo := 0; lo+nx <= len(points); lo += nx {
		name := "headline"
		if len(sp.Axes) == 2 {
			name = sp.Axes[0].Name + "=" + leadText[lo/nx]
		}
		s := series[name]
		for k, x := range xAxis.Values {
			pt := &points[lo+k]
			if !pt.hasHeadline {
				continue
			}
			if s == nil {
				s = fig.AddSeries(name)
				s.Points = make([]report.Point, 0, nx)
				series[name] = s
			}
			s.Add(x, pt.headline)
		}
	}
	if len(series) == 0 {
		return nil
	}
	return fig
}
