package reliability

import "math"

// Scheme is an error-detection/correction strategy with first-order energy
// and coverage characteristics, supporting the paper's recommendation of
// "lower-overhead approaches that employ dynamic (hardware) checking of
// invariants supplied by software" over brute-force redundancy.
type Scheme struct {
	// Name identifies the scheme.
	Name string
	// EnergyOverhead is extra energy relative to unprotected execution
	// (1.0 = doubles energy).
	EnergyOverhead float64
	// DetectCoverage is the fraction of errors detected.
	DetectCoverage float64
	// Corrects is true when detected errors are also masked/corrected
	// without a rollback.
	Corrects bool
}

// StandardSchemes returns the modelled protection points: dual- and
// triple-modular redundancy, ECC on memory, and an invariant-checking
// coprocessor (software-supplied invariants checked by cheap hardware).
func StandardSchemes() []Scheme {
	return []Scheme{
		{Name: "none", EnergyOverhead: 0, DetectCoverage: 0},
		{Name: "dmr", EnergyOverhead: 1.05, DetectCoverage: 0.99},
		{Name: "tmr", EnergyOverhead: 2.15, DetectCoverage: 0.999, Corrects: true},
		{Name: "ecc-mem", EnergyOverhead: 0.125, DetectCoverage: 0.90},
		{Name: "invariant-coproc", EnergyOverhead: 0.10, DetectCoverage: 0.85},
	}
}

// EnergyPerDetectedError returns the scheme's extra energy spent per error
// detected, for a workload consuming baseEnergy joules during which
// nErrors occur. Lower is better; the paper's argument is that the
// invariant coprocessor wins this metric by an order of magnitude over
// DMR/TMR.
func (s Scheme) EnergyPerDetectedError(baseEnergy float64, nErrors float64) float64 {
	detected := s.DetectCoverage * nErrors
	if detected == 0 {
		return math.Inf(1)
	}
	return baseEnergy * s.EnergyOverhead / detected
}
