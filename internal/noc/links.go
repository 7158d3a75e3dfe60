package noc

import (
	"math"

	"repro/internal/units"
)

// LinkKind selects a physical-layer technology for a point-to-point link.
type LinkKind int

// The modelled link technologies.
const (
	// Electrical is an on-chip/package copper wire with repeaters.
	Electrical LinkKind = iota
	// Photonic is a silicon-photonic waveguide/fiber link.
	Photonic
	// Board is SerDes-based chip-to-chip signaling.
	Board
)

func (k LinkKind) String() string {
	switch k {
	case Electrical:
		return "electrical"
	case Photonic:
		return "photonic"
	default:
		return "board"
	}
}

// Link models the energy of moving bits over a distance.
type Link struct {
	Kind LinkKind
	// PerBitPerMM is distance-proportional energy (electrical only).
	PerBitPerMM units.Energy
	// PerBitFixed is distance-independent per-bit energy (modulator/laser
	// for photonic, SerDes for board).
	PerBitFixed units.Energy
	// MaxMM is the practical reach (0 = unlimited).
	MaxMM float64
}

// StandardLinks returns the three modelled technologies with 45nm-class
// constants: electrical wires cost ~0.2 pJ/bit/mm, photonics ~1 pJ/bit flat,
// board SerDes ~10 pJ/bit flat.
func StandardLinks() []Link {
	return []Link{
		{Kind: Electrical, PerBitPerMM: 0.2 * units.Picojoule, MaxMM: 0},
		{Kind: Photonic, PerBitFixed: 1 * units.Picojoule, MaxMM: 0},
		{Kind: Board, PerBitFixed: 10 * units.Picojoule, MaxMM: 500},
	}
}

// EnergyPerBit returns transport energy for one bit over mm.
func (l Link) EnergyPerBit(mm float64) units.Energy {
	return l.PerBitFixed + l.PerBitPerMM*units.Energy(mm)
}

// ElectricalPhotonicCrossoverMM returns the distance beyond which the
// photonic link is cheaper per bit than the electrical one. Returns +Inf if
// photonics never wins.
func ElectricalPhotonicCrossoverMM(elec, phot Link) float64 {
	num := float64(phot.PerBitFixed - elec.PerBitFixed)
	den := float64(elec.PerBitPerMM - phot.PerBitPerMM)
	if den <= 0 {
		return math.Inf(1)
	}
	x := num / den
	if x < 0 {
		return 0
	}
	return x
}

// CommComputeCrossoverMM returns the distance at which moving a 64-bit
// operand over the electrical link costs as much as the given compute
// operation. Beyond this distance the paper's "communication more expensive
// than computation" regime holds.
func CommComputeCrossoverMM(elec Link, opEnergy units.Energy) float64 {
	perMM := float64(elec.PerBitPerMM) * 64
	if perMM <= 0 {
		return math.Inf(1)
	}
	fixed := float64(elec.PerBitFixed) * 64
	x := (float64(opEnergy) - fixed) / perMM
	if x < 0 {
		return 0
	}
	return x
}

// PinBandwidthGap returns the ratio of on-chip aggregate demand to off-chip
// pin bandwidth as gates scale by factor g, for Rent exponent p < 1: the
// gap grows as g^(1-p).
func PinBandwidthGap(g float64, p float64) float64 {
	return math.Pow(g, 1-p)
}
