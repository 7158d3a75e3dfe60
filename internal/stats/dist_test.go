package stats

import (
	"math"
	"testing"
	"testing/quick"
)

// checkDist verifies that sampled moments and quantiles of d agree with the
// analytic ones within loose Monte-Carlo tolerance.
func checkDist(t *testing.T, d Dist, meanTol float64) {
	t.Helper()
	r := NewRNG(101)
	s := NewSample(200000)
	for i := 0; i < 200000; i++ {
		s.Add(d.Sample(r))
	}
	if m := d.Mean(); !math.IsInf(m, 0) && !math.IsNaN(m) {
		if math.Abs(s.Mean()-m) > meanTol*math.Max(1, math.Abs(m)) {
			t.Errorf("%v: sampled mean %v vs analytic %v", d, s.Mean(), m)
		}
	}
	// Median check via quantile.
	med := d.Quantile(0.5)
	if got := s.Percentile(50); math.Abs(got-med) > 0.05*math.Max(1, math.Abs(med)) {
		t.Errorf("%v: sampled median %v vs analytic %v", d, got, med)
	}
	// The CDF inverts Quantile and matches the sampled one.
	for _, p := range []float64{0.05, 0.5, 0.9, 0.99} {
		if got := d.CDF(d.Quantile(p)); math.Abs(got-p) > 1e-8 {
			t.Errorf("%v: CDF(Quantile(%v)) = %v", d, p, got)
		}
		if got := d.CDF(s.Percentile(100 * p)); math.Abs(got-p) > 0.005 {
			t.Errorf("%v: CDF at the sampled %v quantile = %v", d, p, got)
		}
	}
}

func TestConstant(t *testing.T) {
	d := Constant{V: 3.5}
	r := NewRNG(1)
	if d.Sample(r) != 3.5 || d.Mean() != 3.5 || d.Quantile(0.99) != 3.5 ||
		d.CDF(3.4) != 0 || d.CDF(3.5) != 1 {
		t.Fatal("Constant distribution misbehaves")
	}
}

func TestExponential(t *testing.T) { checkDist(t, Exponential{Rate: 0.5}, 0.02) }
func TestLogNormal(t *testing.T)   { checkDist(t, LogNormal{Mu: 0, Sigma: 0.5}, 0.03) }
func TestPareto(t *testing.T)      { checkDist(t, Pareto{Xm: 1, Alpha: 3}, 0.05) }

func TestShifted(t *testing.T) {
	d := Shifted{D: Exponential{Rate: 1}, Offset: 10}
	if math.Abs(d.Mean()-11) > 1e-12 {
		t.Fatalf("shifted mean = %v, want 11", d.Mean())
	}
	if got := d.CDF(10 + math.Ln2); math.Abs(got-0.5) > 1e-12 || d.CDF(9.9) != 0 {
		t.Fatalf("shifted CDF(10+ln2) = %v, want 0.5", got)
	}
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		if d.Sample(r) < 10 {
			t.Fatal("shifted sample below offset")
		}
	}
}

func TestBimodalMean(t *testing.T) {
	d := Bimodal{Base: Constant{V: 1}, Heavy: Constant{V: 100}, PHeavy: 0.01}
	want := 0.99*1 + 0.01*100
	if math.Abs(d.Mean()-want) > 1e-9 {
		t.Fatalf("bimodal mean = %v, want %v", d.Mean(), want)
	}
	checkDist(t, Bimodal{Base: Exponential{Rate: 1}, Heavy: Exponential{Rate: 0.01}, PHeavy: 0.05}, 0.05)
}

func TestExponentialQuantile(t *testing.T) {
	d := Exponential{Rate: 2}
	// median of Exp(2) = ln2/2
	want := math.Ln2 / 2
	if got := d.Quantile(0.5); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Exp quantile(0.5) = %v, want %v", got, want)
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.99, 2.326348},
		{0.001, -3.090232},
	}
	for _, c := range cases {
		if got := normQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("normQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("normQuantile(0) did not panic")
		}
	}()
	normQuantile(0)
}

// Property: Quantile is monotone non-decreasing in p for several familes.
func TestQuickQuantileMonotone(t *testing.T) {
	dists := []Dist{
		Exponential{Rate: 1.3},
		LogNormal{Mu: 1, Sigma: 0.7},
		Pareto{Xm: 2, Alpha: 1.5},
	}
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 1)
		b := math.Mod(math.Abs(bRaw), 1)
		if a == 0 || b == 0 || a == 1 || b == 1 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		for _, d := range dists {
			if d.Quantile(a) > d.Quantile(b)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: samples from bounded-support distributions stay in support.
func TestQuickSupportBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		p := Pareto{Xm: 2, Alpha: 2}
		for i := 0; i < 100; i++ {
			if v := p.Sample(r); v < 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfBasics(t *testing.T) {
	z := NewZipf(100, 1.0)
	r := NewRNG(31)
	counts := make([]int, 101)
	const n = 200000
	for i := 0; i < n; i++ {
		rank := z.Rank(r)
		if rank < 1 || rank > 100 {
			t.Fatalf("Zipf rank %d out of range", rank)
		}
		counts[rank]++
	}
	// Rank 1 should be about 2x rank 2 for s=1.
	ratio := float64(counts[1]) / float64(counts[2])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("Zipf(s=1) rank1/rank2 = %v, want ~2", ratio)
	}
	// Empirical mass of rank 1 should match Prob(1).
	emp := float64(counts[1]) / n
	if math.Abs(emp-z.Prob(1)) > 0.01 {
		t.Errorf("Zipf Prob(1)=%v but empirical %v", z.Prob(1), emp)
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(50, 0.8)
	sum := 0.0
	for i := 1; i <= 50; i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf probs sum to %v", sum)
	}
	if z.Prob(0) != 0 || z.Prob(51) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0,..) did not panic")
		}
	}()
	NewZipf(0, 1)
}
