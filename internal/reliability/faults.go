package reliability

import (
	"math"

	"repro/internal/stats"
)

// SoftErrorModel converts a technology node's FIT density into event rates
// for a memory of a given size.
type SoftErrorModel struct {
	// FITPerMb is failures (bit flips) per 1e9 device-hours per megabit.
	FITPerMb float64
	// Megabits is the protected array size.
	Megabits float64
}

// FlipsPerSecond returns the expected raw bit-flip rate.
func (m SoftErrorModel) FlipsPerSecond() float64 {
	return m.FITPerMb * m.Megabits / 1e9 / 3600
}

// ExpectedFlips returns the expected flips over an interval in seconds.
func (m SoftErrorModel) ExpectedFlips(seconds float64) float64 {
	return m.FlipsPerSecond() * seconds
}

// UncorrectableRate returns the per-word-per-scrub probability that two or
// more flips land in the same 72-bit ECC word between scrubs — the residual
// error ECC cannot hide. lambdaWord is the per-word flip rate (flips/s) and
// scrubSeconds the scrub interval: 1 - e^-x - x e^-x for x = lambda*T.
func UncorrectableRate(lambdaWord, scrubSeconds float64) float64 {
	x := lambdaWord * scrubSeconds
	if x < 1e-4 {
		// Series expansion avoids catastrophic cancellation at tiny x:
		// 1 - e^-x - x e^-x = x²/2 - x³/3 + O(x⁴).
		return x * x * (0.5 - x/3)
	}
	return 1 - math.Exp(-x) - x*math.Exp(-x)
}

// InjectionResult summarizes a fault-injection campaign over ECC-protected
// memory.
type InjectionResult struct {
	SingleFlips    int
	DoubleFlips    int
	CorrectedOK    int // single flips corrected with right data
	DetectedDouble int // double flips flagged uncorrectable
}

// InjectAndDecode runs a Monte-Carlo fault-injection campaign: for each of
// n words it injects one flip with pSingle, a second flip with pDouble
// (given a first), then decodes and scores the outcome against the SECDED
// contract: singles corrected, doubles detected.
func InjectAndDecode(n int, pSingle, pDouble float64, r *stats.RNG) InjectionResult {
	var res InjectionResult
	for i := 0; i < n; i++ {
		data := r.Uint64()
		cw := Encode(data)
		flips := 0
		if r.Bool(pSingle) {
			flips = 1
			if r.Bool(pDouble) {
				flips = 2
			}
		}
		first := -1
		for f := 0; f < flips; f++ {
			idx := r.Intn(codewordBits)
			for idx == first {
				idx = r.Intn(codewordBits)
			}
			cw.FlipBit(idx)
			first = idx
		}
		got, status := Decode(cw)
		switch flips {
		case 1:
			res.SingleFlips++
			if status == Corrected && got == data {
				res.CorrectedOK++
			}
		case 2:
			res.DoubleFlips++
			if status == Uncorrectable {
				res.DetectedDouble++
			}
		}
	}
	return res
}
