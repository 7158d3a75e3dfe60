package tech

import (
	"math"
)

var inf = math.Inf(1)

func pow(x, y float64) float64 { return math.Pow(x, y) }

// ScalingRegime selects between classic Dennard scaling and the post-2005
// "new reality".
type ScalingRegime int

const (
	// Dennard is classic constant-field scaling: each generation shrinks
	// dimensions and voltage by 0.7, so power per chip stays constant while
	// transistor count doubles and frequency rises 1.4x.
	Dennard ScalingRegime = iota
	// PostDennard models the end of voltage scaling: dimensions still
	// shrink 0.7x and transistors double, but voltage is (nearly) flat, so
	// at full frequency scaling the chip's power would double each
	// generation.
	PostDennard
)

func (r ScalingRegime) String() string {
	if r == Dennard {
		return "dennard"
	}
	return "post-dennard"
}

// GenPoint is one generation of a scaling trajectory. All values are
// relative to generation 0.
type GenPoint struct {
	Gen         int
	FeatureRel  float64 // feature size (1.0 at gen 0, ×0.7/gen)
	Transistors float64 // transistor count (×2/gen)
	Vdd         float64 // supply voltage relative
	Freq        float64 // achievable frequency relative
	CapPerTr    float64 // capacitance per transistor relative
	PowerChip   float64 // full-chip power at full frequency, relative
	EnergyPerOp float64 // switching energy per operation, relative
	// DarkFrac is the fraction of the chip that must stay idle to fit the
	// generation-0 power budget (0 under Dennard scaling).
	DarkFrac float64
}

// Trajectory computes gens+1 generations of scaling under the given regime.
//
// Classic Dennard per generation with scale factor k = √2 (so transistor
// count exactly doubles): L×1/k, V×1/k, C×1/k, f×k,
// N×2 ⇒ P = N·C·V²·f ⇒ 2·(1/k)·(1/k²)·k = 1 (constant).
// Post-Dennard: V (nearly) flat ⇒ P ≈ 2·(1/k)·1·k = 2 (doubles).
func Trajectory(regime ScalingRegime, gens int) []GenPoint {
	shrink := 1 / math.Sqrt2
	out := make([]GenPoint, gens+1)
	for g := 0; g <= gens; g++ {
		fg := float64(g)
		p := GenPoint{
			Gen:         g,
			FeatureRel:  math.Pow(shrink, fg),
			Transistors: math.Pow(2, fg),
			CapPerTr:    math.Pow(shrink, fg),
			Freq:        math.Pow(1/shrink, fg),
		}
		switch regime {
		case Dennard:
			p.Vdd = math.Pow(shrink, fg)
		case PostDennard:
			// Empirically V fell only ~2%/gen after 2005; model as 0.98.
			p.Vdd = math.Pow(0.98, fg)
		}
		p.EnergyPerOp = p.CapPerTr * p.Vdd * p.Vdd
		p.PowerChip = p.Transistors * p.CapPerTr * p.Vdd * p.Vdd * p.Freq
		if p.PowerChip > 1+1e-9 { // epsilon guards float noise at exact Dennard
			p.DarkFrac = 1 - 1/p.PowerChip
		}
		out[g] = p
	}
	return out
}

// PowerGapAtGen returns the ratio of post-Dennard to Dennard chip power at
// generation g — the "power wall" factor the paper's Table 1 declares not
// viable.
func PowerGapAtGen(g int) float64 {
	d := Trajectory(Dennard, g)[g]
	pd := Trajectory(PostDennard, g)[g]
	return pd.PowerChip / d.PowerChip
}
