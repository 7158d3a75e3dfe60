// Package noc models on-chip and cross-chip interconnect: 2D and
// 3D-stacked meshes with XY(Z) routing, electrical versus photonic link
// energy/latency, and Rent's-rule pin constraints — the substrate for the
// paper's claims that communication now costs more than computation and
// that 3D stacking and photonics "change communication costs radically
// enough to affect the entire system design" (§1.2, §2.3).
package noc

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Mesh is a W×H×Layers mesh NoC with dimension-ordered (XY then Z) routing.
// Layers == 1 gives a planar 2D mesh; Layers > 1 models a 3D stack whose
// vertical hops ride cheap TSVs.
type Mesh struct {
	W, H, Layers int
	// TileMM is the side length of one tile in millimetres (link length).
	TileMM float64
	// RouterLatency is per-router traversal time.
	RouterLatency units.Time
	// RouterEnergyPerFlit is per-router energy for one 64-bit flit.
	RouterEnergyPerFlit units.Energy
	// WirePerBitMM is planar link energy per bit per mm.
	WirePerBitMM units.Energy
	// TSVPerBit is vertical hop energy per bit.
	TSVPerBit units.Energy
	// TSVLatency is vertical hop time.
	TSVLatency units.Time
}

// NewMesh2D returns a W×H planar mesh with default 45nm-class parameters.
func NewMesh2D(w, h int) *Mesh {
	return &Mesh{
		W: w, H: h, Layers: 1,
		TileMM:              1.5,
		RouterLatency:       1 * units.Nanosecond,
		RouterEnergyPerFlit: 5 * units.Picojoule,
		WirePerBitMM:        0.2 * units.Picojoule,
		TSVPerBit:           0.05 * units.Picojoule,
		TSVLatency:          0.1 * units.Nanosecond,
	}
}

// NewMesh3D folds the same node count as a w×h planar mesh into the given
// number of stacked layers (w×h must be divisible by layers).
func NewMesh3D(w, h, layers int) *Mesh {
	if (w*h)%layers != 0 {
		panic(fmt.Sprintf("noc: %dx%d nodes not divisible into %d layers", w, h, layers))
	}
	m := NewMesh2D(w, h)
	// Shrink the footprint: keep aspect ratio by scaling both dims. The
	// per-layer width must divide the per-layer node count exactly or the
	// fold silently drops nodes, so snap to the divisor nearest the ideal
	// scaled width (smaller divisor wins ties).
	scale := math.Sqrt(float64(layers))
	perLayer := (w * h) / layers
	target := float64(w) / scale
	bestW := 1
	for d := 1; d <= perLayer; d++ {
		if perLayer%d != 0 {
			continue
		}
		if math.Abs(float64(d)-target) < math.Abs(float64(bestW)-target) {
			bestW = d
		}
	}
	m.W = bestW
	m.H = perLayer / bestW
	m.Layers = layers
	return m
}

// Nodes returns the total node count.
func (m *Mesh) Nodes() int { return m.W * m.H * m.Layers }

// Coord is a mesh coordinate.
type Coord struct{ X, Y, Z int }

// NodeCoord maps a node index to its coordinate (x fastest).
func (m *Mesh) NodeCoord(id int) Coord {
	if id < 0 || id >= m.Nodes() {
		panic(fmt.Sprintf("noc: node %d out of range", id))
	}
	return Coord{
		X: id % m.W,
		Y: (id / m.W) % m.H,
		Z: id / (m.W * m.H),
	}
}

// MeanEnergyPerFlit returns mean 64-bit-flit transport energy under uniform
// random traffic.
func (m *Mesh) MeanEnergyPerFlit() units.Energy {
	n := float64(m.Nodes())
	if n < 2 {
		return m.RouterEnergyPerFlit
	}
	planar := ((float64(m.W)*float64(m.W)-1)/(3*float64(m.W)) +
		(float64(m.H)*float64(m.H)-1)/(3*float64(m.H))) * n / (n - 1)
	vertical := ((float64(m.Layers)*float64(m.Layers) - 1) /
		(3 * float64(m.Layers))) * n / (n - 1)
	routers := (planar + vertical + 1) * float64(m.RouterEnergyPerFlit)
	wires := planar * m.TileMM * float64(m.WirePerBitMM) * 64
	tsvs := vertical * float64(m.TSVPerBit) * 64
	return units.Energy(routers + wires + tsvs)
}
