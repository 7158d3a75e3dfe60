package noc

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestMeshCoords(t *testing.T) {
	m := NewMesh2D(4, 4)
	if m.Nodes() != 16 {
		t.Fatal("node count")
	}
	c := m.NodeCoord(5)
	if c.X != 1 || c.Y != 1 || c.Z != 0 {
		t.Fatalf("coord of 5 = %+v", c)
	}
	c = m.NodeCoord(15)
	if c.X != 3 || c.Y != 3 {
		t.Fatalf("coord of 15 = %+v", c)
	}
}

func TestMeshCoordPanics(t *testing.T) {
	m := NewMesh2D(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad node id did not panic")
		}
	}()
	m.NodeCoord(4)
}

func TestMesh3DFoldsFootprint(t *testing.T) {
	flat := NewMesh2D(8, 8)
	stacked := NewMesh3D(8, 8, 4)
	if stacked.Nodes() != flat.Nodes() {
		t.Fatalf("3D mesh lost nodes: %d vs %d", stacked.Nodes(), flat.Nodes())
	}
	if stacked.Layers != 4 {
		t.Fatal("layer count wrong")
	}
	// Stacking cuts mean energy for the same node count — the paper's 3D
	// claim.
	if float64(stacked.MeanEnergyPerFlit()) >= float64(flat.MeanEnergyPerFlit()) {
		t.Fatalf("3D energy %v should beat 2D %v",
			stacked.MeanEnergyPerFlit(), flat.MeanEnergyPerFlit())
	}
}

func TestMesh3DPanicsOnBadLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad layer split did not panic")
		}
	}()
	NewMesh3D(3, 3, 2)
}

// MeanEnergyPerFlit's closed form equals the mean, over every ordered
// src≠dst pair, of the flit's dimension-ordered route cost.
func TestMeanEnergyPerFlitMatchesBruteForce(t *testing.T) {
	for _, m := range []*Mesh{NewMesh2D(4, 3), NewMesh3D(4, 4, 2)} {
		n := m.Nodes()
		sum, cnt := 0.0, 0
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				a, b := m.NodeCoord(s), m.NodeCoord(d)
				p := math.Abs(float64(a.X-b.X)) + math.Abs(float64(a.Y-b.Y))
				v := math.Abs(float64(a.Z - b.Z))
				sum += (p+v+1)*float64(m.RouterEnergyPerFlit) + p*m.TileMM*float64(m.WirePerBitMM)*64 +
					v*float64(m.TSVPerBit)*64
				cnt++
			}
		}
		brute := sum / float64(cnt)
		if got := float64(m.MeanEnergyPerFlit()); math.Abs(got-brute) > 1e-9*brute {
			t.Errorf("%dx%dx%d: MeanEnergyPerFlit = %v, brute force = %v", m.W, m.H, m.Layers, got, brute)
		}
	}
}

func TestLinkEnergyShapes(t *testing.T) {
	links := StandardLinks()
	elec, phot := links[0], links[1]
	// Short distance: electrical wins.
	if elec.EnergyPerBit(1) >= phot.EnergyPerBit(1) {
		t.Fatal("electrical should win at 1mm")
	}
	// Long distance: photonic wins.
	if phot.EnergyPerBit(100) >= elec.EnergyPerBit(100) {
		t.Fatal("photonic should win at 100mm")
	}
	cross := ElectricalPhotonicCrossoverMM(elec, phot)
	if cross <= 1 || cross >= 100 {
		t.Fatalf("crossover = %vmm, want in (1,100)", cross)
	}
	// At the crossover the energies match.
	d := math.Abs(float64(elec.EnergyPerBit(cross) - phot.EnergyPerBit(cross)))
	if d > 1e-15 {
		t.Fatalf("energies differ at crossover by %v", d)
	}
}

func TestCommComputeCrossover(t *testing.T) {
	elec := StandardLinks()[0]
	fpOp := 50 * units.Picojoule
	cross := CommComputeCrossoverMM(elec, fpOp)
	// 50pJ / (0.2pJ/bit/mm * 64 bits) ≈ 3.9mm: on-chip scale, as the paper
	// argues (communication rivals computation within a chip).
	if cross < 1 || cross > 10 {
		t.Fatalf("comm/compute crossover = %vmm, want a few mm", cross)
	}
	// A cheaper op crosses over sooner.
	intOp := 1 * units.Picojoule
	if CommComputeCrossoverMM(elec, intOp) >= cross {
		t.Fatal("cheaper ops should cross over sooner")
	}
}

func TestPinBandwidthGap(t *testing.T) {
	// Rent's rule: the on-chip to off-chip bandwidth gap grows with scaling.
	if PinBandwidthGap(64, 0.6) <= PinBandwidthGap(8, 0.6) {
		t.Fatal("pin gap should grow with integration")
	}
}

func TestEnergyPerBitZeroDistance(t *testing.T) {
	for i, l := range StandardLinks() {
		if l.EnergyPerBit(0) != l.PerBitFixed {
			t.Fatalf("link %d: zero-distance energy should be the fixed cost", i)
		}
	}
}
