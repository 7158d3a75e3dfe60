package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Fatalf("var = %v, want 2.5", s.Var())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 15 {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should be all zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	r := NewRNG(41)
	var all, a, b Summary
	for i := 0; i < 1000; i++ {
		x := r.NormFloat64()*3 + 7
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(&b)
	if a.N() != all.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), all.N())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v vs %v", a.Mean(), all.Mean())
	}
	if math.Abs(a.Var()-all.Var()) > 1e-9 {
		t.Fatalf("merged var %v vs %v", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Fatal("merged extrema mismatch")
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var a, b Summary
	a.Merge(&b) // both empty: no panic
	b.Add(2)
	a.Merge(&b)
	if a.N() != 1 || a.Mean() != 2 {
		t.Fatal("merge into empty failed")
	}
	var c Summary
	a.Merge(&c) // merge empty into non-empty
	if a.N() != 1 {
		t.Fatal("merging empty changed N")
	}
}

// Property: Merge is equivalent to adding all observations to one Summary.
func TestQuickSummaryMerge(t *testing.T) {
	f := func(xs []float64, split uint8) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e15 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		k := int(split) % len(clean)
		var all, a, b Summary
		for i, x := range clean {
			all.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		a.Merge(&b)
		if a.N() != all.N() {
			return false
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return math.Abs(a.Mean()-all.Mean()) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample(101)
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 0}, {50, 50}, {100, 100}, {99, 99}, {25, 25},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if s.Median() != 50 {
		t.Errorf("median = %v", s.Median())
	}
	if s.Min() != 0 || s.Max() != 100 {
		t.Error("min/max wrong")
	}
}

func TestSampleInterpolation(t *testing.T) {
	s := NewSample(2)
	s.Add(0)
	s.Add(10)
	if got := s.Percentile(50); math.Abs(got-5) > 1e-9 {
		t.Fatalf("interpolated P50 = %v, want 5", got)
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample(0)
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Max() != 0 || s.Min() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

func TestSampleFracAbove(t *testing.T) {
	s := NewSample(10)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.FracAbove(7); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("FracAbove(7) = %v, want 0.3", got)
	}
	if got := s.FracAbove(10); got != 0 {
		t.Fatalf("FracAbove(max) = %v, want 0", got)
	}
	if got := s.FracAbove(0); got != 1 {
		t.Fatalf("FracAbove(below min) = %v, want 1", got)
	}
}

// Property: percentile is monotone and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(xs []float64, p1Raw, p2Raw uint8) bool {
		s := NewSample(len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		p1 := float64(p1Raw) / 255 * 100
		p2 := float64(p2Raw) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, v2 := s.Percentile(p1), s.Percentile(p2)
		return v1 <= v2 && v1 >= s.Min() && v2 <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleValuesCopy(t *testing.T) {
	s := NewSample(3)
	s.Add(3)
	s.Add(1)
	s.Add(2)
	v := s.Values()
	v[0] = 99
	if s.Mean() != 2 {
		t.Fatal("Values() must return a copy")
	}
}
