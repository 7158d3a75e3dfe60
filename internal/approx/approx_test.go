package approx

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

// relError is |approx-exact| / max(|exact|, 1e-30).
func relError(exact, approx float64) float64 {
	return math.Abs(approx-exact) / math.Max(math.Abs(exact), 1e-30)
}

func TestQuantizeExactAtFullPrecision(t *testing.T) {
	for _, v := range []float64{0, 1, -3.7, 1e-12, 9.87e20} {
		if Quantize(v, 52) != v {
			t.Fatalf("52-bit quantize changed %v", v)
		}
	}
}

func TestQuantizeErrorShrinksWithBits(t *testing.T) {
	v := math.Pi
	prev := math.Inf(1)
	for _, bits := range []int{4, 8, 16, 24, 40} {
		e := relError(v, Quantize(v, bits))
		if e > prev+1e-18 {
			t.Fatalf("error grew with more bits at %d", bits)
		}
		prev = e
	}
	// 8-bit mantissa error bounded by 2^-8ish.
	if e := relError(v, Quantize(v, 8)); e > math.Pow(2, -8) {
		t.Fatalf("8-bit error = %v too large", e)
	}
}

func TestQuantizeSpecials(t *testing.T) {
	if !math.IsNaN(Quantize(math.NaN(), 8)) {
		t.Fatal("NaN should pass through")
	}
	if !math.IsInf(Quantize(math.Inf(1), 8), 1) {
		t.Fatal("Inf should pass through")
	}
	if Quantize(0, 8) != 0 {
		t.Fatal("zero should pass through")
	}
	// Rounding up from near ±MaxFloat64 must not overflow to Inf (a
	// TestQuickQuantize draw found -1.79e308 at 4 bits).
	for _, v := range []float64{math.MaxFloat64, -1.792361127771882e+308} {
		q := Quantize(v, 4)
		if math.IsInf(q, 0) || Quantize(q, 4) != q || relError(v, q) > math.Pow(2, -3) {
			t.Fatalf("Quantize(%g, 4) = %g", v, q)
		}
	}
}

func TestQuantizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 bits did not panic")
		}
	}()
	Quantize(1, 0)
}

// Property: quantization is idempotent and relative error bounded by
// 2^-(bits-1).
func TestQuickQuantize(t *testing.T) {
	f := func(v float64, bitsRaw uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		bits := int(bitsRaw)%48 + 4
		q := Quantize(v, bits)
		if Quantize(q, bits) != q {
			return false
		}
		return relError(v, q) <= math.Pow(2, -float64(bits-1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyModels(t *testing.T) {
	if MultEnergyRel(52) != 1 {
		t.Fatal("full precision should be 1.0")
	}
	// Halving width quarters multiplier energy.
	if math.Abs(MultEnergyRel(26)-0.25) > 1e-12 {
		t.Fatalf("26-bit mult = %v", MultEnergyRel(26))
	}
}

func TestDrowsyPointShape(t *testing.T) {
	full := DrowsyPoint(1.0)
	low := DrowsyPoint(0.3)
	if full.FlipProbPerBit >= 1e-12 {
		t.Fatalf("full refresh flips = %v, want negligible", full.FlipProbPerBit)
	}
	if low.FlipProbPerBit <= full.FlipProbPerBit {
		t.Fatal("lower refresh must flip more")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("refresh 0 did not panic")
		}
	}()
	DrowsyPoint(0)
}

func TestDrowsyStoreInjectsFlips(t *testing.T) {
	r := stats.NewRNG(5)
	data := make([]float64, 2000)
	for i := range data {
		data[i] = 1.0
	}
	noisy := DrowsyMemory{RefreshRel: 0.3, FlipProbPerBit: 1e-3}.Store(data, r)
	changed := 0
	for i := range data {
		if noisy[i] != data[i] {
			changed++
		}
		// Sign/exponent protected: magnitude stays within a factor of 2.
		if noisy[i] < 0.5 || noisy[i] >= 2 {
			t.Fatalf("flip escaped mantissa: %v", noisy[i])
		}
	}
	// Expected changed words ~ 1-(1-1e-3)^52 ≈ 5%.
	if changed == 0 || changed > len(data)/4 {
		t.Fatalf("changed = %d of %d", changed, len(data))
	}
}

func TestRMSE(t *testing.T) {
	if RMSE([]float64{1, 2}, []float64{1, 2}) != 0 {
		t.Fatal("identical series RMSE should be 0")
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Fatalf("RMSE = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestParetoFrontier(t *testing.T) {
	pts := []ParetoPoint{
		{EnergyRel: 1.0, Error: 0.0, Label: "exact"},
		{EnergyRel: 0.5, Error: 0.01, Label: "good"},
		{EnergyRel: 0.6, Error: 0.02, Label: "dominated"},
		{EnergyRel: 0.1, Error: 0.3, Label: "cheap"},
	}
	front := ParetoFrontier(pts)
	if len(front) != 3 {
		t.Fatalf("frontier size = %d, want 3", len(front))
	}
	for _, p := range front {
		if p.Label == "dominated" {
			t.Fatal("dominated point survived")
		}
	}
}

// End-to-end: quantized anomaly detection keeps recall while cutting
// energy — E12's shape.
func TestQuantizedDetectionKeepsQuality(t *testing.T) {
	cfg := workload.DefaultStreamConfig()
	cfg.AnomalyRate = 0.1
	r := stats.NewRNG(31)
	ss := workload.GenerateStream(cfg, 250*120, r)

	exact := workload.ScoreDetector(workload.NewEWMADetector(0.05, 6), ss)

	quant := make([]workload.StreamSample, len(ss))
	copy(quant, ss)
	for i := range quant {
		quant[i].V = Quantize(quant[i].V, 8)
	}
	approxScore := workload.ScoreDetector(workload.NewEWMADetector(0.05, 6), quant)

	if approxScore.Recall() < exact.Recall()-0.1 {
		t.Fatalf("8-bit recall %v vs exact %v", approxScore.Recall(), exact.Recall())
	}
	if MultEnergyRel(8) > 0.05 {
		t.Fatalf("8-bit energy = %v, want < 0.05", MultEnergyRel(8))
	}
}
