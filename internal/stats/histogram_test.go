package stats

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndSum(t *testing.T) {
	h := NewAtomicHistogram([]float64{0.001, 0.01, 0.1})
	for _, x := range []float64{0.0005, 0.001, 0.005, 0.05, 0.5, math.NaN()} {
		h.Observe(x)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5 (NaN dropped)", s.Count)
	}
	// 0.0005 and 0.001 land <= 0.001 (upper bounds are inclusive);
	// 0.005 <= 0.01; 0.05 <= 0.1; 0.5 in +Inf.
	want := []uint64{2, 3, 4}
	for i, w := range want {
		if s.CumCounts[i] != w {
			t.Errorf("cum[%d] (le=%g) = %d, want %d", i, s.Bounds[i], s.CumCounts[i], w)
		}
	}
	if wantSum := 0.0005 + 0.001 + 0.005 + 0.05 + 0.5; math.Abs(s.Sum-wantSum) > 1e-12 {
		t.Errorf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramSnapshotMonotone(t *testing.T) {
	h := NewAtomicHistogram(nil) // default latency buckets
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := 1e-6
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(x)
				x *= 1.7
				if x > 20 {
					x = 1e-6
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		var prev uint64
		for j, c := range s.CumCounts {
			if c < prev {
				t.Fatalf("cumulative counts not monotone at bucket %d: %d < %d", j, c, prev)
			}
			prev = c
		}
		if s.Count < prev {
			t.Fatalf("+Inf count %d below last finite cumulative %d", s.Count, prev)
		}
	}
	close(stop)
	wg.Wait()
}

func TestHistogramSanitizesBounds(t *testing.T) {
	h := NewAtomicHistogram([]float64{0.1, math.Inf(1), 0.001, math.NaN(), 0.1})
	s := h.Snapshot()
	if len(s.Bounds) != 2 || s.Bounds[0] != 0.001 || s.Bounds[1] != 0.1 {
		t.Fatalf("bounds = %v, want [0.001 0.1] (sorted, deduped, non-finite dropped)", s.Bounds)
	}
}

// The fine set is defined twice — fineBounds lists the edges, fineIndex
// computes a bucket arithmetically — and the two must agree everywhere,
// most of all at the edges; no bucket may be wider than the stated 10 %;
// and every bound /metrics exposes must be an edge (so Rebucket is exact).
func TestFineBucketsIndexMatchesEdges(t *testing.T) {
	if len(fineBounds) != fineBuckets {
		t.Fatalf("fineBounds has %d edges, want %d", len(fineBounds), fineBuckets)
	}
	edgeNs := make([]int64, len(fineBounds))
	for i, b := range fineBounds {
		edgeNs[i] = int64(math.Round(b * 1e9))
		if i == 0 {
			continue
		}
		if lo, w := edgeNs[i-1], edgeNs[i]-edgeNs[i-1]; w <= 0 || (lo >= fineLinearNs && 10*w > lo) {
			t.Errorf("bucket (%d, %d] is empty or wider than 10%% of its lower edge", lo, edgeNs[i])
		}
	}
	check := func(ns int64) {
		t.Helper()
		want := sort.Search(len(edgeNs), func(i int) bool { return edgeNs[i] >= ns })
		if got := fineIndex(ns); got != want {
			t.Fatalf("fineIndex(%d) = %d, want %d", ns, got, want)
		}
	}
	for _, e := range append(edgeNs, 0, -5, math.MaxInt64) {
		check(e - 1)
		check(e)
		check(e + 1)
	}
	r := NewRNG(7)
	for i := 0; i < 200000; i++ {
		check(int64(math.Exp(r.Float64() * math.Log(3e10))))
	}
	for _, le := range DefaultLatencyBuckets() {
		if i := sort.SearchFloat64s(fineBounds, le); i == len(fineBounds) || fineBounds[i] != le {
			t.Errorf("exposition bound %g is not a fine edge", le)
		}
	}
}

// histSamples draws n latencies from d, in seconds, each a whole number
// of nanoseconds as a clock would give it.
func histSamples(d Dist, seed uint64, n int) []float64 {
	r := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(int64(d.Sample(r)*1e9)) / 1e9
	}
	return xs
}

var histDists = []Dist{
	LogNormal{Mu: math.Log(300e-9), Sigma: 0.6}, // a warm hit
	LogNormal{Mu: math.Log(2e-3), Sigma: 1.2},   // a cold run
	Bimodal{Base: LogNormal{Mu: math.Log(5e-6), Sigma: 0.3},
		Heavy: LogNormal{Mu: math.Log(40e-3), Sigma: 0.5}, PHeavy: 0.03},
}

// Quantile's stated error: within 10 % of the exact order statistic (the
// estimate and the truth share a bucket no wider than 10 % of its lower
// edge), here against a full sort at the percentiles /stats reports.
func TestHistogramQuantileWithinStatedError(t *testing.T) {
	for di, d := range histDists {
		const n = 200000
		h, exact, sum := NewAtomicHistogram(nil), NewSample(0), 0.0
		for _, x := range histSamples(d, uint64(11+di), n) {
			h.Observe(x)
			exact.Add(x)
			sum += x
		}
		s := h.Snapshot()
		for _, p := range []float64{50, 95, 99, 99.9} {
			if want, got := exact.Percentile(p), s.Quantile(p/100); math.Abs(got-want) > 0.10*want {
				t.Errorf("%v: p%g = %g, exact %g (off by %.1f%%)", d, p, got, want, 100*math.Abs(got-want)/want)
			}
		}
		lat := s.Latency()
		if lat.Count != n || math.Abs(lat.Mean-sum/n) > 1e-6*lat.Mean {
			t.Errorf("%v: Latency count %d mean %g, want %d and %g", d, lat.Count, lat.Mean, n, sum/n)
		}
		lo, hi := exact.Percentile(0), exact.Percentile(100)
		if lat.Min > lo || lat.Min < 0.9*lo-10e-9 || lat.Max < hi || lat.Max > 1.1*hi {
			t.Errorf("%v: Latency min/max %g/%g do not bracket the exact %g/%g at bucket resolution",
				d, lat.Min, lat.Max, lo, hi)
		}
	}
}

// sameSnapshot compares two snapshots bucket for bucket (sums to rounding).
func sameSnapshot(t *testing.T, what string, got, want HistogramSnapshot) {
	t.Helper()
	if got.Count != want.Count || math.Abs(got.Sum-want.Sum) > 1e-9*math.Max(1, want.Sum) ||
		!slices.Equal(got.CumCounts, want.CumCounts) {
		t.Errorf("%s: count/sum %d/%g, want %d/%g; cumulative counts\n%v, want\n%v",
			what, got.Count, got.Sum, want.Count, want.Sum, got.CumCounts, want.CumCounts)
	}
}

// Snapshots are linear: a later snapshot less an earlier one is the
// histogram of what arrived in between (the controller's window), two
// histograms added are the histogram of both streams (hit + cold = all),
// and the coarse /metrics view is what a histogram over those bounds would
// have counted. ObserveDuration, on any lane, fills the buckets Observe does.
func TestHistogramSnapshotAlgebra(t *testing.T) {
	first := histSamples(histDists[0], 21, 30000)
	second := histSamples(histDists[2], 22, 50000)

	h, onlyFirst, onlySecond := NewAtomicHistogram(nil), NewAtomicHistogram(nil), NewAtomicHistogram(nil)
	coarse := NewAtomicHistogram(DefaultLatencyBuckets())
	var before HistogramSnapshot
	for i, x := range append(first, second...) {
		if i == len(first) {
			before = h.Snapshot()
		}
		h.ObserveDuration(time.Duration(math.Round(x*1e9)), uint64(i))
		coarse.ObserveDuration(time.Duration(math.Round(x*1e9)), uint64(i))
		if i < len(first) {
			onlyFirst.Observe(x)
		} else {
			onlySecond.Observe(x)
		}
	}
	all := h.Snapshot()
	if got := h.Count(); got != all.Count || got != uint64(len(first)+len(second)) {
		t.Errorf("Count() = %d, snapshot %d, fed %d", got, all.Count, len(first)+len(second))
	}

	window := h.Snapshot()
	window.Sub(before)
	sameSnapshot(t, "later - earlier", window, onlySecond.Snapshot())

	var merged HistogramSnapshot
	onlyFirst.AddTo(&merged)
	onlySecond.AddTo(&merged)
	sameSnapshot(t, "first + second (AddTo)", merged, all)
	sum := onlyFirst.Snapshot()
	sum.Add(onlySecond.Snapshot())
	sameSnapshot(t, "first + second (Add)", sum, all)
	sameSnapshot(t, "Rebucket(le bounds)", all.Rebucket(DefaultLatencyBuckets()), coarse.Snapshot())

	window.Sub(HistogramSnapshot{})
	window.Add(HistogramSnapshot{})
	sameSnapshot(t, "± the zero snapshot", window, onlySecond.Snapshot())
	window.Reset()
	if window.Count != 0 || window.Sum != 0 || window.Quantile(0.5) != 0 || window.Latency() != (LatencySnapshot{}) {
		t.Errorf("Reset left %+v", window)
	}

	onlyFirst.ObserveDuration(-time.Second, 3) // negative durations count as zero
	onlySecond.Observe(0)
	if a, b := onlyFirst.Snapshot(), onlySecond.Snapshot(); a.CumCounts[0] != 1 || b.CumCounts[0] != 1 {
		t.Errorf("a negative duration and a zero land in bucket 0: got %d and %d there", a.CumCounts[0], b.CumCounts[0])
	}
}
