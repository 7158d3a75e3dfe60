// Package multicore models and measures on-chip parallelism: the
// Hill-Marty "Amdahl's law in the multicore era" speedup models for
// symmetric, asymmetric and dynamic chips, an energy-extended variant that
// charges communication against the shared energy tables, and a real
// work-stealing parallel runtime used to measure (not just model) speedups
// on task DAGs.
//
// This is the substrate for the paper's "rethinking how we design for
// 1,000-way parallelism" (§1.2) and its Table 2 shift from ILP to
// energy-first parallelism.
package multicore

import (
	"math"
)

// Perf returns the Hill-Marty single-core performance of a core built from
// r base-core equivalents (BCEs): perf(r) = √r, the canonical diminishing-
// returns assumption.
func Perf(r float64) float64 { return math.Sqrt(r) }

// SymmetricSpeedup is the speedup of a chip of n BCEs organized as n/r
// cores of r BCEs each, on a workload with parallel fraction f.
func SymmetricSpeedup(f float64, n, r float64) float64 {
	checkFNR(f, n, r)
	p := Perf(r)
	serial := (1 - f) / p
	parallel := f * r / (p * n)
	return 1 / (serial + parallel)
}

// AsymmetricSpeedup is the speedup of one big core of r BCEs plus n-r base
// cores: serial code runs on the big core, parallel code on everything.
func AsymmetricSpeedup(f float64, n, r float64) float64 {
	checkFNR(f, n, r)
	serial := (1 - f) / Perf(r)
	parallel := f / (Perf(r) + (n - r))
	return 1 / (serial + parallel)
}

// DynamicSpeedup is the speedup of a chip that can fuse all n BCEs into one
// big core of r effective BCEs for serial code and split into n base cores
// for parallel code (the ideal reconfigurable chip).
func DynamicSpeedup(f float64, n, r float64) float64 {
	checkFNR(f, n, r)
	serial := (1 - f) / Perf(r)
	parallel := f / n
	return 1 / (serial + parallel)
}

func checkFNR(f, n, r float64) {
	if f < 0 || f > 1 {
		panic("multicore: parallel fraction outside [0,1]")
	}
	if n < 1 || r < 1 || r > n {
		panic("multicore: need 1 <= r <= n")
	}
}

// OptimalSymmetricR returns the integer r in [1, n] maximizing symmetric
// speedup (the lowest such r on a tie) and that speedup; (0, 0) when no
// integer fits or f is NaN.
//
// ln SymmetricSpeedup = ½·ln r − ln((1−f) + f·r/n) has derivative
// (f/2n)·(r*−r) / (r·((1−f) + f·r/n)) with r* = (1−f)·n/f: it rises up to
// r*, falls after it, and on [1, n] peaks at c = clamp(r*, 1, ⌊n⌋).
// Integrating that derivative, an integer d away from c is lower by a
// relative d²/(24c²) or more, while the evaluation's rounding error is a
// few 2⁻⁵³: the float maximum lies within 2 + c·2⁻²⁰ of c, so scanning
// that window in ascending order with the same strict > picks exactly
// what a scan of all of 1…n would.
func OptimalSymmetricR(f float64, n float64) (bestR, bestSpeedup float64) {
	top := math.Floor(n)
	c := (1 - f) * n / f
	if !(c >= 1) { // below range, or NaN from a NaN or infinite f
		c = 1
	}
	if c > top {
		c = top
	}
	w := 2 + math.Ceil(c*0x1p-20)
	lo, hi := math.Max(1, math.Floor(c)-w), math.Min(top, math.Ceil(c)+w)
	for r := lo; r <= hi; r++ {
		if s := SymmetricSpeedup(f, n, r); s > bestSpeedup {
			bestSpeedup, bestR = s, r
		}
	}
	return bestR, bestSpeedup
}

// CommModel extends the Hill-Marty speedup with an energy model in which
// each unit of parallel work performs some communication whose energy grows
// with core count (mean mesh distance ∝ √cores) — the paper's point that
// "communication energy will outgrow computation energy".
type CommModel struct {
	// OpEnergy is compute energy per unit of work (joules).
	OpEnergy float64
	// CommEnergyPerHop is communication energy per unit of work per mesh
	// hop (joules).
	CommEnergyPerHop float64
	// CommFrac is the fraction of work units that communicate.
	CommFrac float64
}

// EnergyPerWork returns mean energy per unit of parallel work on a chip
// with cores cores: compute + communication over √cores mean hops.
func (c CommModel) EnergyPerWork(cores float64) float64 {
	meanHops := (2.0 / 3.0) * math.Sqrt(cores) // mesh mean distance
	return c.OpEnergy + c.CommFrac*c.CommEnergyPerHop*meanHops
}

// PerfPerWatt returns relative performance per watt at a given core count
// for a fully parallel workload: throughput ∝ cores, power ∝ cores ×
// energy-per-work — so perf/W degrades as communication grows.
func (c CommModel) PerfPerWatt(cores float64) float64 {
	return 1 / c.EnergyPerWork(cores)
}

// EffectiveSpeedup returns speedup under a fixed chip power budget
// powerBudget (watts) with each core consuming energy-per-work × workRate
// watts: beyond the budget, cores must be throttled (dark silicon), capping
// speedup.
func (c CommModel) EffectiveSpeedup(f float64, cores, powerBudget, corePowerNominal float64) float64 {
	checkFNR(f, cores, 1)
	perCore := corePowerNominal * c.EnergyPerWork(cores) / c.EnergyPerWork(1)
	usable := cores
	if perCore*cores > powerBudget {
		usable = powerBudget / perCore
		if usable < 1 {
			usable = 1
		}
	}
	serial := 1 - f
	parallel := f / usable
	return 1 / (serial + parallel)
}
