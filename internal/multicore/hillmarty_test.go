package multicore

import (
	"math"
	"math/rand"
	"testing"
)

// scanOptimalSymmetricR is OptimalSymmetricR as it stood before the
// closed-form window: every integer r in [1, n], ascending, strict >. It
// is the reference the window is held to, bit for bit.
func scanOptimalSymmetricR(f float64, n float64) (bestR, bestSpeedup float64) {
	for r := 1.0; r <= n; r++ {
		if s := SymmetricSpeedup(f, n, r); s > bestSpeedup {
			bestSpeedup, bestR = s, r
		}
	}
	return bestR, bestSpeedup
}

// optimum calls find and reports what it returned or what it panicked with.
func optimum(find func(f, n float64) (float64, float64), f, n float64) (r, s float64, panicked any) {
	defer func() { panicked = recover() }()
	r, s = find(f, n)
	return r, s, nil
}

// agree fails unless the window and the scan return the same two floats
// (==, so a sign or an ulp shows) or panic with the same value.
func agree(t testing.TB, f, n float64) {
	t.Helper()
	wr, ws, wp := optimum(scanOptimalSymmetricR, f, n)
	gr, gs, gp := optimum(OptimalSymmetricR, f, n)
	if gr != wr || gs != ws || gp != wp {
		t.Fatalf("OptimalSymmetricR(%v, %v) = (%v, %v, panic %v), scan gives (%v, %v, panic %v)",
			f, n, gr, gs, gp, wr, ws, wp)
	}
}

func TestOptimalSymmetricRMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	// Every chip size E7 admits, at its f bounds, its default, and seeded
	// f values across its range.
	for n := 16.0; n <= 4096; n++ {
		for _, f := range []float64{0.5, 0.975, 0.9999} {
			agree(t, f, n)
		}
		for i := 0; i < 24; i++ {
			agree(t, 0.5+rng.Float64()*0.4999, n)
		}
		checked += 27
	}
	// The repository benchmark's cold-grid shape.
	for b := 0; b < 250; b += 83 {
		for k := 0; k < 400; k += 57 {
			for i := 0; i < 8; i++ {
				for j := 0; j < 8; j++ {
					agree(t, 0.55+0.05*float64(i)+float64(k)*1e-7, float64(16+(b+k)%250+500*j))
					checked++
				}
			}
		}
	}
	// The whole domain, non-integer n included.
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Float64()*4095
		if i%2 == 0 {
			n = math.Floor(n)
		}
		agree(t, rng.Float64(), n)
		checked++
	}
	t.Logf("%d inputs agree with the scan", checked)
}

func TestOptimalSymmetricREdges(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, n := range []float64{1, 1.5, 2, 3, 16, 255.9, 256, 4096, 0.5, 0, -3, nan} {
		for _, f := range []float64{0, 1, 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
			math.SmallestNonzeroFloat64, math.Nextafter(1, 0), nan,
			-0.1, 1.1, -inf, inf} { // out of range: the scan's panic, or its (0, 0) when n < 1
			agree(t, f, n)
		}
	}
	if r, s := OptimalSymmetricR(nan, 256); r != 0 || s != 0 {
		t.Fatalf("NaN f: got (%v, %v), want (0, 0)", r, s)
	}
	if _, _, p := optimum(OptimalSymmetricR, 1.5, 256); p == nil {
		t.Fatal("f = 1.5 did not panic")
	}
	// Past E7's range the window widens with r*: keep it honest there too.
	for _, n := range []float64{1 << 16, 1<<20 + 0.25} {
		for _, f := range []float64{0.5, 0.6, 0.9, 0.999, 0.999999} {
			agree(t, f, n)
		}
	}
}

// FuzzOptimalSymmetricR holds the window to the scan on arbitrary bits.
func FuzzOptimalSymmetricR(f *testing.F) {
	f.Add(0.975, 256.0)
	f.Add(0.5, 17.5)
	f.Add(0.0, 1.0)
	f.Add(1.0, 4096.0)
	f.Add(math.NaN(), 64.0)
	f.Add(-0.25, 64.0)
	f.Fuzz(func(t *testing.T, pf, n float64) {
		if n > 1<<17 {
			t.Skip() // the scan is linear in n
		}
		agree(t, pf, n)
	})
}
