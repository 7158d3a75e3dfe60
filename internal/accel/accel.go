// Package accel models hardware specialization: the specialization factor,
// coverage-limited chip-level energy gains (Amdahl for accelerators),
// non-recurring-engineering (NRE) crossovers between ASIC/FPGA/CGRA
// implementation points, and a dark-silicon area/power allocator.
//
// It quantifies the paper's §2.2 "Enabling Specialization" claims: ~100×
// energy efficiency from stripping general-purpose overheads, limited today
// by narrow coverage and prohibitive NRE.
package accel

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/units"
)

// SpecializationFactor computes the energy-efficiency gain of a hardwired
// datapath over a general-purpose instruction for an op of the given
// datapath energy, from the shared energy table: everything the pipeline
// spends around the op is overhead the accelerator strips.
func SpecializationFactor(tbl energy.Table, op units.Energy) float64 {
	return float64(tbl.GPInstruction(op)) / float64(tbl.AccelOp(op))
}

// CoveredEnergyGain is the accelerator-Amdahl law for energy: with coverage
// c of the workload accelerated at energy-efficiency factor e (rest on the
// GP core at 1), the chip-level gain is 1/((1-c) + c/e).
func CoveredEnergyGain(c, e float64) float64 {
	checkCoverage(c)
	if e <= 0 {
		panic("accel: non-positive efficiency")
	}
	return 1 / ((1 - c) + c/e)
}

func checkCoverage(c float64) {
	if c < 0 || c > 1 {
		panic(fmt.Sprintf("accel: coverage %g outside [0,1]", c))
	}
}

// ImplPoint is one hardware implementation strategy for a function.
type ImplPoint struct {
	// Name: "asic", "fpga", "cgra", "gp".
	Name string
	// NRE is the one-time design/verify/mask cost in dollars.
	NRE float64
	// UnitCost is the marginal manufacturing cost per part in dollars.
	UnitCost float64
}

// StandardImplPoints returns the modelled implementation points. The
// constants encode the paper's qualitative ordering: full-custom ASICs are
// most efficient with prohibitive NRE; FPGAs slash NRE but pay an
// order-of-magnitude efficiency penalty to fine-grain reconfigurability;
// CGRAs (the paper's "coarser-grain semi-programmable building blocks")
// sit between; the GP core is the zero-NRE baseline.
func StandardImplPoints() []ImplPoint {
	return []ImplPoint{
		{Name: "asic", NRE: 3e7, UnitCost: 5},
		{Name: "cgra", NRE: 3e6, UnitCost: 8},
		{Name: "fpga", NRE: 2e5, UnitCost: 30},
		{Name: "gp", NRE: 0, UnitCost: 20},
	}
}

// CrossoverVolume returns the volume at which a's per-unit cost drops to
// b's, assuming a has higher NRE and lower unit cost; +Inf if never.
func CrossoverVolume(a, b ImplPoint) float64 {
	dn := a.NRE - b.NRE
	dc := b.UnitCost - a.UnitCost
	if dc <= 0 {
		return math.Inf(1)
	}
	v := dn / dc
	if v < 0 {
		return 0
	}
	return v
}
