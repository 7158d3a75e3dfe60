package workload

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestEWMADetectorFlagsStepAfterWarmup(t *testing.T) {
	d := NewEWMADetector(0.1, 6)
	d.Warmup = 20
	rng := stats.NewRNG(3)
	// Noisy flat baseline through warmup, then a large step. A 6x
	// deviation-scale threshold still fires on rare noise tails, so the
	// calm phase is held to "mostly clean", not spotless.
	calmFlags := 0
	for i := 0; i < 200; i++ {
		if d.Observe(1 + 0.01*rng.NormFloat64()) {
			calmFlags++
		}
	}
	if calmFlags > 4 {
		t.Fatalf("calm baseline flagged %d/200 samples", calmFlags)
	}
	flagged := 0
	for i := 0; i < 50; i++ {
		if d.Observe(10 + 0.01*rng.NormFloat64()) {
			flagged++
		}
	}
	if flagged < 45 {
		t.Errorf("step samples flagged %d/50; robust detector should keep flagging a sustained excursion", flagged)
	}
	// Back to baseline: the excluded-from-stats excursion must not have
	// dragged the mean, so normal samples are not flagged.
	if d.Observe(1) {
		t.Errorf("baseline sample flagged after excursion; anomaly leaked into the EWMA")
	}
}

func TestEWMADetectorWarmupNeverFlags(t *testing.T) {
	d := NewEWMADetector(0.2, 0.0001) // absurdly tight threshold
	d.Warmup = 30
	for i := 0; i < 30; i++ {
		// Wild swings during warmup must update stats, never flag.
		if d.Observe(float64(i%2) * 100) {
			t.Fatalf("warmup sample %d flagged", i)
		}
	}
}

func TestEWMADetectorZeroVariance(t *testing.T) {
	// A perfectly flat signal drives the deviation scale toward zero;
	// the first departure, however small, must then be flagged — and a
	// forever-step locks the detector into flagging (documented).
	d := NewEWMADetector(0.3, 3)
	d.Warmup = 10
	for i := 0; i < 500; i++ {
		if d.Observe(5) {
			t.Fatalf("constant signal flagged at %d", i)
		}
	}
	flagged := 0
	for i := 0; i < 20; i++ {
		if d.Observe(5.001) {
			flagged++
		}
	}
	if flagged != 20 {
		t.Errorf("zero-variance detector flagged %d/20 step samples; want all (dev scale frozen, step never absorbed)", flagged)
	}
	// The flagged step never updated the stats: returning to the old
	// baseline is clean.
	if d.Observe(5) {
		t.Errorf("original baseline flagged after frozen step")
	}
}

func TestScoreDetectorAllAnomalySaturates(t *testing.T) {
	// All-anomaly edge: every ground-truth sample is anomalous, so there
	// are no negatives of either kind — precision 1 if anything is
	// flagged, recall = flagged fraction.
	base := make([]StreamSample, 150)
	for i := range base {
		base[i] = StreamSample{T: float64(i), V: 1, Anomalous: false}
	}
	burst := make([]StreamSample, 150)
	for i := range burst {
		burst[i] = StreamSample{T: float64(150 + i), V: 50, Anomalous: true}
	}
	d := NewEWMADetector(0.1, 5)
	d.Warmup = 50
	_ = ScoreDetector(d, base) // establish the baseline
	sc := ScoreDetector(d, burst)
	if sc.TrueNegative != 0 || sc.FalsePositive != 0 {
		t.Fatalf("all-anomaly stream produced negatives: %+v", sc)
	}
	if sc.Recall() < 0.99 {
		t.Errorf("Recall = %g on an unmissable burst, want ~1; score %+v", sc.Recall(), sc)
	}
	if sc.Precision() != 1 {
		t.Errorf("Precision = %g with zero false positives, want 1", sc.Precision())
	}
	if got, want := sc.FlaggedFraction(), sc.Recall(); math.Abs(got-want) > 1e-12 {
		t.Errorf("FlaggedFraction = %g, want recall %g when every sample is anomalous", got, want)
	}
}

func TestDetectorScoreZeroDenominators(t *testing.T) {
	var empty DetectorScore
	if empty.Recall() != 0 || empty.Precision() != 0 || empty.FlaggedFraction() != 0 {
		t.Errorf("zero score should yield zero rates, got R=%g P=%g F=%g",
			empty.Recall(), empty.Precision(), empty.FlaggedFraction())
	}
	noFlags := DetectorScore{TrueNegative: 10}
	if noFlags.Precision() != 0 {
		t.Errorf("Precision with no flags = %g, want 0", noFlags.Precision())
	}
}

func TestScoreDetectorOnGeneratedStream(t *testing.T) {
	// End to end over the synthetic heart stream: the cheap filter must
	// catch most injected bursts without flagging much of the baseline.
	cfg := DefaultStreamConfig()
	ss := GenerateStream(cfg, 20000, stats.NewRNG(11))
	if f := anomalyFraction(ss); f <= 0 || f >= 0.5 {
		t.Fatalf("generated stream anomaly fraction %g implausible", f)
	}
	d := NewEWMADetector(0.05, 6)
	sc := ScoreDetector(d, ss)
	if sc.Recall() < 0.5 {
		t.Errorf("Recall = %g, want >= 0.5 on magnitude-3 bursts", sc.Recall())
	}
	if ff, af := sc.FlaggedFraction(), anomalyFraction(ss); ff > 3*af+0.05 {
		t.Errorf("FlaggedFraction %g way above true anomaly fraction %g", ff, af)
	}
}

// anomalyFraction is the share of samples marked anomalous.
func anomalyFraction(ss []StreamSample) float64 {
	n := 0
	for _, s := range ss {
		if s.Anomalous {
			n++
		}
	}
	return float64(n) / float64(len(ss))
}
