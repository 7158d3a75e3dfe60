package energy

import "math"

// Roofline is the energy view of the classic performance roofline that the
// paper's memory-hierarchy direction implies: a kernel's energy per op is
// the datapath op plus the amortized memory energy per byte over its
// arithmetic intensity.
type Roofline struct {
	// OpEnergy is datapath energy per operation (joules).
	OpEnergy float64
	// MemEnergyPerByte is memory-system energy per byte moved (joules).
	MemEnergyPerByte float64
}

// EnergyPerOp returns total energy per operation at the given intensity:
// the op itself plus memory traffic amortized over the ops it feeds. As
// intensity falls, the memory term dominates — the energy version of E5's
// operand-fetch gap.
func (r Roofline) EnergyPerOp(intensity float64) float64 {
	if intensity <= 0 {
		return math.Inf(1)
	}
	return r.OpEnergy + r.MemEnergyPerByte/intensity
}

// EnergyBalanceIntensity returns the ops/byte at which memory energy equals
// compute energy — below it, the memory system burns most of the joules.
func (r Roofline) EnergyBalanceIntensity() float64 {
	if r.OpEnergy == 0 {
		return math.Inf(1)
	}
	return r.MemEnergyPerByte / r.OpEnergy
}

// StandardRoofline returns a 45nm server-class roofline from the shared
// energy table.
func StandardRoofline() Roofline {
	t := Table45()
	return Roofline{
		OpEnergy:         float64(t.FPOp),
		MemEnergyPerByte: float64(t.DRAM) / 8,
	}
}
