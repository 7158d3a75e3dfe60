package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDeanClosedForm(t *testing.T) {
	// The paper: fanout 100 at per-leaf p99 -> 63%.
	got := FractionAboveQuantile(100, 0.99)
	want := 1 - math.Pow(0.99, 100) // 0.6340
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("closed form = %v, want %v", got, want)
	}
	if got < 0.63 || got > 0.64 {
		t.Fatalf("fanout-100 fraction = %v, want ~0.63", got)
	}
	// Single leaf: exactly 1%.
	if f := FractionAboveQuantile(1, 0.99); math.Abs(f-0.01) > 1e-12 {
		t.Fatalf("fanout-1 fraction = %v", f)
	}
}

func TestClosedFormPanics(t *testing.T) {
	for i, f := range []func(){
		func() { FractionAboveQuantile(0, 0.99) },
		func() { FractionAboveQuantile(10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMonteCarloMatchesClosedForm(t *testing.T) {
	r := stats.NewRNG(2012)
	res := SimulateForkJoin(ForkJoinConfig{
		Fanout: 100,
		Leaf:   stats.Exponential{Rate: 100},
		Trials: 20000,
	}, r)
	if math.Abs(res.FracAboveLeafP99-0.634) > 0.02 {
		t.Fatalf("MC fraction = %v, want ~0.634", res.FracAboveLeafP99)
	}
	if res.ExtraLoad != 0 {
		t.Fatal("no hedging should mean no extra load")
	}
	if res.P99 < res.P50 || res.Mean <= 0 {
		t.Fatal("latency stats inconsistent")
	}
}

// Property: the 63% result is distribution-free — it holds for any
// continuous leaf distribution.
func TestQuickDistributionFree(t *testing.T) {
	dists := []stats.Dist{
		stats.Exponential{Rate: 3},
		stats.LogNormal{Mu: 0, Sigma: 1},
		stats.Pareto{Xm: 1, Alpha: 2.5},
		stats.Shifted{D: stats.Exponential{Rate: 1}, Offset: 5},
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		d := dists[int(seed%uint64(len(dists)))]
		res := SimulateForkJoin(ForkJoinConfig{
			Fanout: 100, Leaf: d, Trials: 4000}, r)
		return math.Abs(res.FracAboveLeafP99-0.634) < 0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHedgingCollapsesTail(t *testing.T) {
	leaf := DefaultLeafLatency()
	r1 := stats.NewRNG(7)
	plain := SimulateForkJoin(ForkJoinConfig{
		Fanout: 100, Leaf: leaf, Trials: 20000}, r1)
	r2 := stats.NewRNG(7)
	hedged := SimulateForkJoin(ForkJoinConfig{
		Fanout: 100, Leaf: leaf, Trials: 20000,
		Policy: Hedged, HedgeQuantile: 0.95}, r2)
	// Dean's result shape: hedging cuts the join p99 dramatically for a
	// few percent extra load.
	if hedged.P99 >= plain.P99*0.7 {
		t.Fatalf("hedged p99 %v should be well below plain %v", hedged.P99, plain.P99)
	}
	if hedged.ExtraLoad > 0.08 {
		t.Fatalf("hedge extra load = %v, want ~5%%", hedged.ExtraLoad)
	}
	if hedged.ExtraLoad <= 0 {
		t.Fatal("hedging issued no duplicates")
	}
}

func TestFanoutSweepMonotone(t *testing.T) {
	// Fraction above leaf p99 grows with fanout.
	prev := -1.0
	for _, n := range []int{1, 10, 100, 1000} {
		f := FractionAboveQuantile(n, 0.99)
		if f <= prev {
			t.Fatal("fraction should grow with fanout")
		}
		prev = f
	}
}

func TestQueueingClusterLoadDependence(t *testing.T) {
	base := QueueingConfig{
		Leaves:      20,
		LeafService: stats.Exponential{Rate: 1000}, // 1ms
		Requests:    4000,
		Seed:        99,
	}
	low := base
	low.RootRate = 100 // ~10% util
	high := base
	high.RootRate = 700 // ~70% util
	lowRes := SimulateQueueing(low)
	highRes := SimulateQueueing(high)
	if highRes.P99 <= lowRes.P99 {
		t.Fatalf("queueing should inflate tails: low %v high %v", lowRes.P99, highRes.P99)
	}
	if highRes.MeanLeafUtilization <= lowRes.MeanLeafUtilization {
		t.Fatal("utilization should grow with load")
	}
	if lowRes.Completed != 4000 || highRes.Completed != 4000 {
		t.Fatal("lost requests")
	}
}

func TestQueueingDeterminism(t *testing.T) {
	cfg := QueueingConfig{
		Leaves: 10, RootRate: 200,
		LeafService: stats.Exponential{Rate: 1000},
		Requests:    500, Seed: 5,
	}
	a, b := SimulateQueueing(cfg), SimulateQueueing(cfg)
	if a != b {
		t.Fatal("queueing sim not deterministic")
	}
}

func TestQueueingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	SimulateQueueing(QueueingConfig{Leaves: 0, Requests: 1})
}

func TestWarehouseModel(t *testing.T) {
	w := Warehouse{
		Machines:      50000,
		MachineWatts:  300,
		PUE:           1.2,
		OpsPerMachine: 1e11,
	}
	if w.TotalPowerWatts() != 50000*300*1.2 {
		t.Fatal("power wrong")
	}
	if w.TotalOps() != 50000*1e11 {
		t.Fatal("ops wrong")
	}
	if w.OpsPerWatt() <= 0 {
		t.Fatal("efficiency wrong")
	}
	// 10MW budget: how many machines fit.
	n := w.MachinesForPower(10e6)
	if n != 27777 { // floor(1e7 / 360)
		t.Fatalf("machines for 10MW = %d", n)
	}
}

func TestDefaultLeafShape(t *testing.T) {
	leaf := DefaultLeafLatency()
	r := stats.NewRNG(3)
	s := stats.NewSample(50000)
	for i := 0; i < 50000; i++ {
		s.Add(leaf.Sample(r))
	}
	// p99/p50 should be heavy (several x), and all latencies above floor.
	if s.Percentile(0) < 0.001 {
		t.Fatal("latency below RTT floor")
	}
	ratio := s.Percentile(99) / s.Percentile(50)
	if ratio < 3 {
		t.Fatalf("p99/p50 = %v, want heavy tail", ratio)
	}
	// Quantile is the exact inverse of the closed-form CDF.
	for _, p := range []float64{0.5, 0.95, 0.99, 0.999} {
		if got := leaf.CDF(leaf.Quantile(p)); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, got)
		}
	}
}
