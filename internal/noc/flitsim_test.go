package noc

import (
	"math"
	"testing"
)

// meanHops is the mean dimension-ordered hop count over every ordered
// src≠dst pair: the zero-load latency in cycles.
func meanHops(m *Mesh) float64 {
	n := m.Nodes()
	sum := 0.0
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			a, b := m.NodeCoord(s), m.NodeCoord(d)
			sum += math.Abs(float64(a.X-b.X)) + math.Abs(float64(a.Y-b.Y)) + math.Abs(float64(a.Z-b.Z))
		}
	}
	return sum / float64(n*(n-1))
}

func TestFlitSimLowLoadLatencyNearHops(t *testing.T) {
	m := NewMesh2D(4, 4)
	res := FlitSim{
		Mesh:          m,
		InjectionRate: 0.02,
		WarmupCycles:  1000,
		MeasureCycles: 5000,
		Seed:          3,
	}.Run()
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	// At 2% load the mesh is uncontended: a flit advances one hop per
	// cycle, so mean latency approximates the mean hop count.
	zeroLoad := meanHops(m)
	if res.MeanLatency < zeroLoad*0.8 || res.MeanLatency > zeroLoad*2.5 {
		t.Fatalf("low-load latency = %v cycles, zero-load bound %v", res.MeanLatency, zeroLoad)
	}
	// Throughput tracks offered load (x nodes excluded self-sends ~6%).
	if res.Throughput < 0.015 || res.Throughput > 0.021 {
		t.Fatalf("throughput = %v, offered 0.02", res.Throughput)
	}
}

func TestFlitSimContentionInflatesLatency(t *testing.T) {
	m := NewMesh2D(8, 8)
	low := FlitSim{Mesh: m, InjectionRate: 0.02, WarmupCycles: 1000,
		MeasureCycles: 5000, Seed: 5}.Run()
	high := FlitSim{Mesh: m, InjectionRate: 0.45, WarmupCycles: 1000,
		MeasureCycles: 5000, Seed: 5}.Run()
	if high.MeanLatency < 2*low.MeanLatency {
		t.Fatalf("contention should inflate latency: low %v high %v",
			low.MeanLatency, high.MeanLatency)
	}
}

func TestFlitSimSaturationThroughputCaps(t *testing.T) {
	m := NewMesh2D(8, 8)
	// XY routing on an 8x8 mesh saturates near 0.5 flits/node/cycle
	// (center-channel load k*rate/4 reaches 1); offer 0.7.
	sat := FlitSim{Mesh: m, InjectionRate: 0.7, WarmupCycles: 2000,
		MeasureCycles: 6000, Seed: 7}.Run()
	if sat.Throughput > 0.60 {
		t.Fatalf("throughput %v should saturate below offered 0.7", sat.Throughput)
	}
	if sat.DroppedAtSource == 0 {
		t.Fatal("saturation should push back on injection")
	}
}

func TestFlitSim3DBeats2DUnderLoad(t *testing.T) {
	flat := NewMesh2D(8, 8)
	stacked := NewMesh3D(8, 8, 4)
	rate := 0.15
	f := FlitSim{Mesh: flat, InjectionRate: rate, WarmupCycles: 1000,
		MeasureCycles: 5000, Seed: 9}.Run()
	s := FlitSim{Mesh: stacked, InjectionRate: rate, WarmupCycles: 1000,
		MeasureCycles: 5000, Seed: 9}.Run()
	if s.MeanLatency >= f.MeanLatency {
		t.Fatalf("3D latency %v should beat 2D %v under load",
			s.MeanLatency, f.MeanLatency)
	}
}

func TestSaturationSweepShape(t *testing.T) {
	m := NewMesh2D(4, 4)
	rows := SaturationSweep(m, []float64{0.05, 0.3, 0.7}, 11)
	if len(rows) != 3 {
		t.Fatal("row count")
	}
	// Latency nondecreasing in offered load.
	if rows[2][1] < rows[0][1] {
		t.Fatalf("latency should grow with load: %v", rows)
	}
	// Throughput nondecreasing then capped.
	if rows[1][2] < rows[0][2] {
		t.Fatalf("throughput should not fall below low-load value: %v", rows)
	}
}

func TestFlitSimDeterminism(t *testing.T) {
	m := NewMesh2D(4, 4)
	cfg := FlitSim{Mesh: m, InjectionRate: 0.1, WarmupCycles: 500,
		MeasureCycles: 2000, Seed: 13}
	a, b := cfg.Run(), cfg.Run()
	if a != b {
		t.Fatal("flit sim not deterministic")
	}
}
