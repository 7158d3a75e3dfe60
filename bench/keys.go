package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/sweep"
)

// The benchmark's key sets are fixed here, copied from the shapes of
// internal/load's warm-hammer and cluster-scatter scenarios rather than
// imported, so a later change to the load package cannot move a
// benchmark number.

// variant is one (experiment, assignment) request and its golden output,
// computed in set-up by running the experiment through core directly.
type variant struct {
	ID     string
	Params core.Params

	// Key is the engine cache key, Raw the encoded result, Report its
	// rendering; Headline/Findings are what the routed envelope carries.
	Key      string
	Raw      []byte
	Report   string
	Headline *float64
	Findings []string
	// Path is the request path + query ("/v1/run/E7?param=f%3D0.9").
	Path string
	// Assignments is Params in "name=value" wire form (batch entries).
	Assignments []string
}

// defaults is one default-parameter variant per ID.
func defaults(ids ...string) []variant {
	out := make([]variant, len(ids))
	for i, id := range ids {
		out[i] = variant{ID: id}
	}
	return out
}

// hotSet is the 16-variant warm-hammer hot set, hottest first.
func hotSet() []variant {
	return append(defaults("E7", "E5", "E1", "E2", "E4", "E10", "E14", "E17", "E22", "T1"),
		variant{ID: "E7", Params: core.Params{"f": 0.9}},
		variant{ID: "E7", Params: core.Params{"bces": 1024}},
		variant{ID: "E7", Params: core.Params{"f": 0.99, "bces": 64}},
		variant{ID: "E5", Params: core.Params{"tile": 1024}},
		variant{ID: "E5", Params: core.Params{"operands": 6}},
		variant{ID: "E1", Params: core.Params{"gens": 12}},
	)
}

// scatterSet is the 59-key cluster-scatter grid: 40 E7 points, 12 E1
// points and a band of defaults, so a three-replica ring sees every
// backend take traffic.
func scatterSet() []variant {
	var out []variant
	for _, f := range []float64{0.9, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99} {
		for _, b := range []float64{16, 64, 256, 1024} {
			out = append(out, variant{ID: "E7", Params: core.Params{"f": f, "bces": b}})
		}
	}
	for g := 1.0; g <= 12; g++ {
		out = append(out, variant{ID: "E1", Params: core.Params{"gens": g}})
	}
	return append(out, defaults("E2", "E4", "E10", "E14", "E17", "E22", "T1")...)
}

// golden fills every variant's expected outputs by executing it through
// core, outside any serving layer.
func golden(vs []variant) error {
	for i := range vs {
		vr := &vs[i]
		exp, ok := core.ByID(vr.ID)
		if !ok {
			return fmt.Errorf("golden: unknown experiment %q", vr.ID)
		}
		res, resolved, err := exp.RunWith(context.Background(), vr.Params)
		if err != nil {
			return fmt.Errorf("golden: %s: %w", vr.ID, err)
		}
		vr.Key = exp.CacheKey(resolved)
		vr.Raw = res.Encode()
		vr.Report = res.Render()
		vr.Headline = res.Headline
		vr.Findings = res.Findings
		vr.Assignments = vr.Params.Assignments()
		vr.Path = "/v1/run/" + url.PathEscape(vr.ID)
		sep := "?"
		for _, a := range vr.Assignments {
			vr.Path += sep + "param=" + url.QueryEscape(a)
			sep = "&"
		}
	}
	return nil
}

// zipfDraws returns n seeded Zipf(s) indices into a set of the given
// size (index 0 hottest); s == 0 gives a seeded uniform draw.
func zipfDraws(seed int64, s float64, size, n int) []uint16 {
	r := rand.New(rand.NewSource(seed))
	out := make([]uint16, n)
	if s <= 1 {
		for i := range out {
			out[i] = uint16(r.Intn(size))
		}
		return out
	}
	z := rand.NewZipf(r, s, 1, uint64(size-1))
	for i := range out {
		out[i] = uint16(z.Uint64())
	}
	return out
}

// coldGrid generates sweep-cold's never-repeating 64-point E7 grids: call
// k of a run sweeps 8 f values by 8 bces values whose offsets come from
// the seed and k, so no (f, bces) point is ever requested twice in a
// process and every point is a compulsory miss.
type coldGrid struct {
	fBase float64
	bBase int
}

const (
	coldAxis   = 8
	coldPoints = coldAxis * coldAxis
	// Call k shifts every f value by k * coldShift. coldMaxCalls keeps the
	// shift below the 0.05 spacing between neighbouring f values, which is
	// what makes grids disjoint across calls.
	coldShift    = 1e-7
	coldMaxCalls = 450000
)

func newColdGrid(seed int64) coldGrid {
	r := rand.New(rand.NewSource(seed))
	return coldGrid{fBase: 0.55 + r.Float64()*0.004, bBase: r.Intn(250)}
}

// axes returns call k's two axis assignments in sweep order.
func (g coldGrid) axes(k int) []string {
	if k >= coldMaxCalls {
		panic("bench: cold grid exhausted")
	}
	var f, b strings.Builder
	f.WriteString("f=")
	b.WriteString("bces=")
	for i := 0; i < coldAxis; i++ {
		if i > 0 {
			f.WriteByte(',')
			b.WriteByte(',')
		}
		f.WriteString(core.FormatParamValue(g.fBase + 0.05*float64(i) + float64(k)*coldShift))
		b.WriteString(core.FormatParamValue(float64(16 + (g.bBase+k)%250 + 500*i)))
	}
	return []string{f.String(), b.String()}
}

// spec parses call k's axes into a sweep.Spec (for in-process runs and
// for computing the golden of a checked call).
func (g coldGrid) spec(k int) (sweep.Spec, error) {
	return sweep.ParseSpec("E7", g.axes(k))
}
