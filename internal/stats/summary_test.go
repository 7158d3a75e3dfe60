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
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 {
		t.Fatal("empty summary should be all zeros")
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
	if s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should return zeros")
	}
}

// Property: percentile is monotone and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(xs []float64, p1Raw, p2Raw uint8) bool {
		s := NewSample(len(xs))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
			lo, hi = math.Min(lo, x), math.Max(hi, x)
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
		return v1 <= v2 && v1 >= lo && v2 <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
