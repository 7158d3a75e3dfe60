package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestSIFormatting(t *testing.T) {
	cases := []struct {
		v    float64
		unit string
		want string
	}{
		{0, "J", "0J"},
		{1.5e-12, "J", "1.5pJ"},
		{2e9, "op", "2Gop"},
		{1e6, "W", "1MW"},
		{-3e3, "W", "-3kW"},
		{1, "s", "1s"},
		{1e-15, "J", "1fJ"},
		{1e-18, "J", "1e-18J"},
	}
	for _, c := range cases {
		if got := SI(c.v, c.unit); got != c.want {
			t.Errorf("SI(%v,%q) = %q, want %q", c.v, c.unit, got, c.want)
		}
	}
}

func TestStringers(t *testing.T) {
	if s := (2 * Picojoule).String(); !strings.Contains(s, "pJ") {
		t.Errorf("Energy.String() = %q, want pJ suffix", s)
	}
	if s := (10 * Megawatt).String(); !strings.Contains(s, "MW") {
		t.Errorf("Power.String() = %q, want MW suffix", s)
	}
	if s := (3 * Nanosecond).String(); !strings.Contains(s, "ns") {
		t.Errorf("Time.String() = %q, want ns suffix", s)
	}
	if s := (7 * GigaOp).String(); !strings.Contains(s, "Gop") {
		t.Errorf("Ops.String() = %q, want Gop suffix", s)
	}
}

// Property: SI never returns an empty string and preserves sign.
func TestQuickSISign(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		s := SI(v, "J")
		if s == "" {
			return false
		}
		if v < 0 && !strings.HasPrefix(s, "-") {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
