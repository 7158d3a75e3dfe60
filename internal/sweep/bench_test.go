package sweep

import (
	"context"
	"testing"

	"repro/internal/serve"
)

// e7Grid is a 64-point E7 grid (8 f values by 8 bces values); shift moves
// every value, so distinct shifts share no point.
func e7Grid(shift int) Spec {
	sp := Spec{ID: "E7", Axes: []Axis{{Name: "f"}, {Name: "bces"}}}
	for i := 0; i < 8; i++ {
		sp.Axes[0].Values = append(sp.Axes[0].Values, 0.55+0.05*float64(i)+float64(shift)*1e-7)
		sp.Axes[1].Values = append(sp.Axes[1].Values, float64(16+shift%250+500*i))
	}
	return sp
}

// benchSweep runs b.N sweeps of grid(k) through Run, each point's NDJSON
// line appended as the POST /sweep handler appends it, requires every
// call to book hits cache hits, and reports wall time per point.
func benchSweep(b *testing.B, e *serve.Engine, grid func(k int) Spec, hits int) {
	ctx := context.Background()
	var line []byte
	emit := func(pt Point) error {
		var err error
		line, err = appendPointLine(line[:0], &pt)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		sum, err := Run(ctx, e, grid(k), emit)
		if err != nil || sum.CacheHits != hits {
			b.Fatalf("call %d: %d cache hits (want %d), err %v", k, sum.CacheHits, hits, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/point")
}

// BenchmarkSweepCold is the in-tree reading of a cold sweep's scaling:
// Run over fresh 64-point E7 grids (shifted per call so no point repeats)
// into a 4 MiB engine. ns/point is wall time per point; compare -cpu 1,2
// to see what a second core buys.
func BenchmarkSweepCold(b *testing.B) {
	e := serve.NewEngine(serve.Config{CacheBytes: 4 << 20})
	defer e.Close()
	benchSweep(b, e, e7Grid, 0)
}

// BenchmarkSweepWarm is its warm twin: Run over one 64-point E7 grid that
// is already in the cache, the repeated or overlapping sweep whose every
// point hits. Sweep points reach the engine by map (no interned identity),
// so this prices how the batch call serves map-only hits.
func BenchmarkSweepWarm(b *testing.B) {
	e := serve.NewEngine(serve.Config{CacheBytes: 4 << 20})
	defer e.Close()
	sp := e7Grid(0)
	if _, err := Run(context.Background(), e, sp, func(Point) error { return nil }); err != nil {
		b.Fatal(err)
	}
	benchSweep(b, e, func(int) Spec { return sp }, 64)
}
