// Package energy provides the shared energy-accounting substrate of the
// arch21 toolkit: pJ-level per-operation and per-access energy tables
// (calibrated to the 45 nm figures of Keckler's Micro 2011 keynote, which
// the paper cites), communication energy models spanning on-chip wires to
// radios, and the paper's sensor→datacenter efficiency ladder.
//
// Having one table shared by every experiment keeps cross-experiment
// comparisons consistent: the specialization factor of E4, the operand-fetch
// gap of E5, and the sensor compute-vs-communicate tradeoff of E11 all read
// the same constants.
package energy

import (
	"repro/internal/tech"
	"repro/internal/units"
)

// Table holds per-event energy costs for one process node. All per-access
// values are for one 64-bit word unless noted.
type Table struct {
	// Node is the process generation the table describes.
	Node tech.Node

	// IntOp is a 64-bit integer ALU operation (datapath only).
	IntOp units.Energy
	// FPOp is a 64-bit floating-point fused multiply-add (datapath only).
	FPOp units.Energy
	// InstrOverhead is the general-purpose pipeline's per-instruction
	// overhead: fetch, decode, rename, schedule, commit. This — not the
	// datapath — is what specialization strips away.
	InstrOverhead units.Energy
	// RegFile is one 64-bit register-file read or write.
	RegFile units.Energy

	// SRAM reads per 64-bit word, by array capacity.
	SRAM8KB   units.Energy
	SRAM32KB  units.Energy
	SRAM256KB units.Energy
	SRAM1MB   units.Energy
	// DRAM is one 64-bit off-chip DRAM access (activate+IO amortized).
	DRAM units.Energy

	// WirePerBitMM is on-chip wire transport energy per bit per millimetre.
	WirePerBitMM units.Energy
	// ChipToChip is board-level interconnect energy per bit.
	ChipToChip units.Energy
	// PhotonicPerBit is silicon-photonic link energy per bit (largely
	// distance-independent once the laser/modulator is paid).
	PhotonicPerBit units.Energy
	// TSVPerBit is a 3D through-silicon-via hop per bit.
	TSVPerBit units.Energy
	// NetworkPerBit is datacenter-network transport per bit (NIC+switches).
	NetworkPerBit units.Energy
	// RadioPerBit is a low-power wireless (BLE/Zigbee-class) radio per bit,
	// the sensor uplink of E11.
	RadioPerBit units.Energy
}

// Table45 returns the reference table at 45 nm. Sources are the widely
// published figures from Keckler (Micro 2011 keynote) and Horowitz (ISSCC
// 2014): a 64-bit FMA costs tens of pJ while a DRAM operand fetch costs
// nJ-class energy — the 1–2 orders-of-magnitude gap the paper quotes.
func Table45() Table {
	return Table{
		Node:           tech.Node45(),
		IntOp:          1 * units.Picojoule,
		FPOp:           50 * units.Picojoule,
		InstrOverhead:  125 * units.Picojoule,
		RegFile:        5 * units.Picojoule,
		SRAM8KB:        10 * units.Picojoule,
		SRAM32KB:       20 * units.Picojoule,
		SRAM256KB:      50 * units.Picojoule,
		SRAM1MB:        100 * units.Picojoule,
		DRAM:           2000 * units.Picojoule,
		WirePerBitMM:   0.2 * units.Picojoule,
		ChipToChip:     10 * units.Picojoule,
		PhotonicPerBit: 1 * units.Picojoule,
		TSVPerBit:      0.05 * units.Picojoule,
		NetworkPerBit:  50 * units.Picojoule,
		RadioPerBit:    50 * units.Nanojoule,
	}
}

// ForNode scales the 45 nm table's switching energies to another node via
// the C·V² relation. Off-chip costs (DRAM interface, chip-to-chip, network,
// radio) scale much more slowly; we apply half the logic scaling to them,
// which is the first-order reason communication is "more expensive than
// computation" in the paper's Table 1 — logic rides scaling, wires and pads
// do not.
func ForNode(n tech.Node) Table {
	base := Table45()
	logic := n.DynamicEnergyRel(n.Vdd) // relative to 45nm
	comm := (1 + logic) / 2            // communication scales half as fast
	t := Table{
		Node:           n,
		IntOp:          base.IntOp * units.Energy(logic),
		FPOp:           base.FPOp * units.Energy(logic),
		InstrOverhead:  base.InstrOverhead * units.Energy(logic),
		RegFile:        base.RegFile * units.Energy(logic),
		SRAM8KB:        base.SRAM8KB * units.Energy(logic),
		SRAM32KB:       base.SRAM32KB * units.Energy(logic),
		SRAM256KB:      base.SRAM256KB * units.Energy(logic),
		SRAM1MB:        base.SRAM1MB * units.Energy(logic),
		DRAM:           base.DRAM * units.Energy(comm),
		WirePerBitMM:   base.WirePerBitMM * units.Energy(logic),
		ChipToChip:     base.ChipToChip * units.Energy(comm),
		PhotonicPerBit: base.PhotonicPerBit, // laser floor does not scale
		TSVPerBit:      base.TSVPerBit * units.Energy(logic),
		NetworkPerBit:  base.NetworkPerBit * units.Energy(comm),
		RadioPerBit:    base.RadioPerBit, // radiated energy is physics-bound
	}
	return t
}

// GPInstruction returns the full cost of one general-purpose instruction
// executing the given datapath op: overhead + two register reads + one
// write + the op itself.
func (t Table) GPInstruction(op units.Energy) units.Energy {
	return t.InstrOverhead + 3*t.RegFile + op
}

// AccelOp returns the cost of the same datapath op on a hardwired
// accelerator: the op plus a small control margin (5% of the op),
// reflecting stripped fetch/decode/scheduling. The GPInstruction/AccelOp
// ratio is the specialization factor of E4.
func (t Table) AccelOp(op units.Energy) units.Energy {
	return op + op/20
}

// OperandFetch returns the energy to fetch one 64-bit operand from the
// named level: "reg", "l1" (32KB), "l2" (256KB), "l3" (1MB slice), "dram".
func (t Table) OperandFetch(level string) units.Energy {
	switch level {
	case "reg":
		return t.RegFile
	case "l1":
		return t.SRAM32KB
	case "l2":
		return t.SRAM256KB
	case "l3":
		return t.SRAM1MB
	case "dram":
		return t.DRAM
	default:
		panic("energy: unknown operand level " + level)
	}
}
