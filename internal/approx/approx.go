// Package approx implements approximate-computing techniques the paper
// motivates for inherently-noisy sensor data (§2.1) and for the
// "approximate data types" interface direction (§2.4): reduced-precision
// arithmetic with an energy model and approximate (drowsy refresh) memory with bit-flip injection — plus the quality metrics needed
// to report energy/quality Pareto points.
package approx

import (
	"math"

	"repro/internal/stats"
)

// Quantize rounds v to the nearest representable value with mantissaBits
// bits of mantissa precision (1..52), the model of a reduced-precision
// approximate data type.
func Quantize(v float64, mantissaBits int) float64 {
	if mantissaBits >= 52 {
		return v
	}
	if mantissaBits < 1 {
		panic("approx: mantissa bits must be >= 1")
	}
	if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return v
	}
	drop := uint(52 - mantissaBits)
	b := math.Float64bits(v)
	mask := (uint64(1) << drop) - 1
	// Round to nearest: add half-ULP of the truncated grid before masking.
	// Within half a grid step of ±MaxFloat64 that carries into the Inf
	// exponent, so the value truncates instead.
	if q := math.Float64frombits((b + 1<<(drop-1)) &^ mask); !math.IsInf(q, 0) {
		return q
	}
	return math.Float64frombits(b &^ mask)
}

// MultEnergyRel returns the relative energy of a multiplier with the given
// mantissa width versus full 52-bit precision: array multiplier energy
// scales roughly quadratically in operand width.
func MultEnergyRel(mantissaBits int) float64 {
	w := float64(mantissaBits)
	return (w * w) / (52 * 52)
}

// DrowsyMemory models an approximate SRAM/DRAM whose refresh (or retention
// voltage) is reduced to save energy at the cost of random bit flips in
// stored values.
type DrowsyMemory struct {
	// RefreshRel is refresh energy relative to nominal (1.0 = full).
	RefreshRel float64
	// FlipProbPerBit is the resulting per-bit flip probability per
	// retention period.
	FlipProbPerBit float64
}

// DrowsyPoint returns the modelled flip probability for a refresh-energy
// setting: retention failures grow exponentially as refresh drops below
// nominal. At full refresh the flip probability is negligible (~1e-15).
func DrowsyPoint(refreshRel float64) DrowsyMemory {
	if refreshRel <= 0 || refreshRel > 1 {
		panic("approx: refresh setting must be in (0,1]")
	}
	// 1e-15 at refreshRel=1 rising to ~1e-3 at refreshRel=0.25.
	exponent := -15 + 16*(1-refreshRel)
	return DrowsyMemory{
		RefreshRel:     refreshRel,
		FlipProbPerBit: math.Pow(10, exponent),
	}
}

// Store writes data through the drowsy memory, flipping mantissa bits with
// the configured probability (sign and exponent are assumed protected, the
// standard approximate-storage design choice).
func (d DrowsyMemory) Store(data []float64, r *stats.RNG) []float64 {
	out := make([]float64, len(data))
	for i, v := range data {
		b := math.Float64bits(v)
		for bit := 0; bit < 52; bit++ {
			if r.Bool(d.FlipProbPerBit) {
				b ^= 1 << uint(bit)
			}
		}
		out[i] = math.Float64frombits(b)
	}
	return out
}

// RMSE returns the root-mean-square error between two equal-length series.
func RMSE(exact, approx []float64) float64 {
	if len(exact) != len(approx) {
		panic("approx: RMSE length mismatch")
	}
	if len(exact) == 0 {
		return 0
	}
	sum := 0.0
	for i := range exact {
		d := approx[i] - exact[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(exact)))
}

// ParetoPoint is one energy/quality tradeoff observation.
type ParetoPoint struct {
	// EnergyRel is energy relative to the exact configuration.
	EnergyRel float64
	// Error is the quality loss metric (smaller is better).
	Error float64
	// Label describes the configuration.
	Label string
}

// ParetoFrontier filters points to the non-dominated set (no other point
// has both lower energy and lower error), preserving input order.
func ParetoFrontier(points []ParetoPoint) []ParetoPoint {
	var out []ParetoPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.EnergyRel <= p.EnergyRel && q.Error <= p.Error &&
				(q.EnergyRel < p.EnergyRel || q.Error < p.Error) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
