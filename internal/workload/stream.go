package workload

import (
	"math"

	"repro/internal/stats"
)

func mathLog2(x float64) float64 { return math.Log2(x) }

// StreamSample is one reading from a sensor stream.
type StreamSample struct {
	// V is the measured value (arbitrary biometric units).
	V float64
	// Anomalous marks ground-truth injected anomalies, used to score
	// detectors.
	Anomalous bool
}

// StreamConfig parameterizes a synthetic biometric stream: a quasi-periodic
// baseline (e.g. heart rhythm) with Gaussian noise and rare anomaly bursts
// (the "distinguishing a nominal biometric signal from an anomaly" workload
// of the paper's smart-sensing section).
type StreamConfig struct {
	// SampleHz is the sampling rate.
	SampleHz float64
	// BaseAmplitude is the amplitude of the periodic baseline component.
	BaseAmplitude float64
	// BaseHz is the baseline frequency (e.g. ~1.2 Hz for heart rate).
	BaseHz float64
	// NoiseStd is the additive Gaussian noise sigma.
	NoiseStd float64
	// AnomalyRate is the expected number of anomaly events per second.
	AnomalyRate float64
	// AnomalyMagnitude scales the anomaly excursion relative to baseline.
	AnomalyMagnitude float64
	// AnomalyLen is the number of consecutive anomalous samples per event.
	AnomalyLen int
}

// DefaultStreamConfig returns a heart-monitor-like configuration: 250 Hz
// sampling, 1.2 Hz rhythm, 2% per-second anomaly rate.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		SampleHz:         250,
		BaseAmplitude:    1.0,
		BaseHz:           1.2,
		NoiseStd:         0.05,
		AnomalyRate:      0.02,
		AnomalyMagnitude: 3.0,
		AnomalyLen:       50,
	}
}

// GenerateStream produces n consecutive samples of the configured stream
// using r for noise and anomaly placement.
func GenerateStream(cfg StreamConfig, n int, r *stats.RNG) []StreamSample {
	out := make([]StreamSample, n)
	anomalyLeft := 0
	pAnomalyStart := cfg.AnomalyRate / cfg.SampleHz
	for i := 0; i < n; i++ {
		t := float64(i) / cfg.SampleHz
		v := cfg.BaseAmplitude * math.Sin(2*math.Pi*cfg.BaseHz*t)
		v += cfg.NoiseStd * r.NormFloat64()
		anomalous := false
		if anomalyLeft > 0 {
			anomalyLeft--
			anomalous = true
		} else if r.Bool(pAnomalyStart) {
			anomalyLeft = cfg.AnomalyLen - 1
			anomalous = true
		}
		if anomalous {
			v += cfg.AnomalyMagnitude * cfg.BaseAmplitude
		}
		out[i] = StreamSample{V: v, Anomalous: anomalous}
	}
	return out
}

// EWMADetector is a simple exponentially-weighted moving-average anomaly
// detector suitable for on-sensor filtering: it flags samples whose
// deviation from the EWMA exceeds Threshold times the running deviation
// scale. It is intentionally cheap (a few ops per sample) — the point of
// E11 is that even a cheap filter pays for itself by avoiding radio energy.
//
// The detector is outlier-robust: after a warm-up period it excludes
// flagged samples from its statistics, so a sustained anomaly burst keeps
// being flagged instead of being absorbed into the baseline. (A perfectly
// flat signal that suddenly steps forever would lock the detector into
// flagging; sensor baselines in this toolkit are noisy, which keeps the
// deviation scale alive.)
type EWMADetector struct {
	// Alpha is the EWMA smoothing factor in (0, 1].
	Alpha float64
	// Threshold is the flag threshold in deviation-scale multiples.
	Threshold float64
	// Warmup is the number of initial samples that always update the
	// statistics (never flagged).
	Warmup int

	mean float64
	dev  float64
	seen int
}

// NewEWMADetector returns a detector with the given smoothing and threshold
// and a 100-sample warmup.
func NewEWMADetector(alpha, threshold float64) *EWMADetector {
	return &EWMADetector{Alpha: alpha, Threshold: threshold, Warmup: 100, dev: 1e-6}
}

// Observe consumes one sample value and reports whether it is flagged
// anomalous.
func (d *EWMADetector) Observe(v float64) bool {
	d.seen++
	if d.seen == 1 {
		d.mean = v
		return false
	}
	diff := math.Abs(v - d.mean)
	flag := d.seen > d.Warmup && diff > d.Threshold*d.dev
	if !flag {
		d.mean = (1-d.Alpha)*d.mean + d.Alpha*v
		d.dev = (1-d.Alpha)*d.dev + d.Alpha*diff
	}
	return flag
}

// DetectorScore summarizes detector accuracy against ground truth.
type DetectorScore struct {
	TruePositive, FalsePositive, TrueNegative, FalseNegative int
}

// Recall is TP / (TP + FN).
func (s DetectorScore) Recall() float64 {
	d := s.TruePositive + s.FalseNegative
	if d == 0 {
		return 0
	}
	return float64(s.TruePositive) / float64(d)
}

// Precision is TP / (TP + FP).
func (s DetectorScore) Precision() float64 {
	d := s.TruePositive + s.FalsePositive
	if d == 0 {
		return 0
	}
	return float64(s.TruePositive) / float64(d)
}

// FlaggedFraction is the fraction of all samples the detector flagged.
func (s DetectorScore) FlaggedFraction() float64 {
	tot := s.TruePositive + s.FalsePositive + s.TrueNegative + s.FalseNegative
	if tot == 0 {
		return 0
	}
	return float64(s.TruePositive+s.FalsePositive) / float64(tot)
}

// ScoreDetector runs the detector over the stream and scores it.
func ScoreDetector(d *EWMADetector, ss []StreamSample) DetectorScore {
	var sc DetectorScore
	for _, s := range ss {
		flag := d.Observe(s.V)
		switch {
		case flag && s.Anomalous:
			sc.TruePositive++
		case flag && !s.Anomalous:
			sc.FalsePositive++
		case !flag && s.Anomalous:
			sc.FalseNegative++
		default:
			sc.TrueNegative++
		}
	}
	return sc
}
