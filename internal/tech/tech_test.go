package tech

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestNodeLibrary(t *testing.T) {
	ns := Nodes()
	if len(ns) < 8 {
		t.Fatalf("node library too small: %d", len(ns))
	}
	// Feature sizes strictly decrease, years increase, Vdd non-increasing.
	for i := 1; i < len(ns); i++ {
		if ns[i].FeatureNm >= ns[i-1].FeatureNm {
			t.Errorf("feature did not shrink at %s", ns[i].Name)
		}
		if ns[i].Year <= ns[i-1].Year {
			t.Errorf("years not increasing at %s", ns[i].Name)
		}
		if ns[i].Vdd > ns[i-1].Vdd {
			t.Errorf("Vdd increased at %s", ns[i].Name)
		}
		if ns[i].SoftErrorFITPerMb < ns[i-1].SoftErrorFITPerMb {
			t.Errorf("soft error rate should not improve at %s", ns[i].Name)
		}
		if ns[i].DensityMTrPerMM2 <= ns[i-1].DensityMTrPerMM2 {
			t.Errorf("density should grow at %s", ns[i].Name)
		}
	}
}

func TestVddScalingStopped(t *testing.T) {
	// The end of Dennard scaling: 180nm->90nm drops Vdd by ~33%, while
	// 45nm->7nm drops it far less despite a bigger shrink.
	early, _ := NodeByName("180nm")
	mid, _ := NodeByName("90nm")
	late, _ := NodeByName("7nm")
	n45, _ := NodeByName("45nm")
	earlyDrop := (early.Vdd - mid.Vdd) / early.Vdd
	lateDrop := (n45.Vdd - late.Vdd) / n45.Vdd
	if earlyDrop <= lateDrop {
		t.Fatalf("voltage scaling should flatten: early=%v late=%v", earlyDrop, lateDrop)
	}
}

func TestNodeByName(t *testing.T) {
	n, ok := NodeByName("45nm")
	if !ok || n.FeatureNm != 45 {
		t.Fatal("45nm lookup failed")
	}
	if _, ok := NodeByName("3nm"); ok {
		t.Fatal("unexpected node")
	}
}

func TestGateDelayNormalization(t *testing.T) {
	n := Node45()
	if d := n.GateDelay(n.Vdd); math.Abs(d-1) > 1e-12 {
		t.Fatalf("45nm nominal delay = %v, want 1", d)
	}
	// Lower voltage -> slower.
	if n.GateDelay(0.6) <= n.GateDelay(1.0) {
		t.Fatal("delay should grow as Vdd falls")
	}
	// At or below threshold -> infinite delay.
	if !math.IsInf(n.GateDelay(n.Vth), 1) {
		t.Fatal("delay at Vth should be +Inf")
	}
}

func TestDynamicEnergyRel(t *testing.T) {
	n := Node45()
	if e := n.DynamicEnergyRel(n.Vdd); math.Abs(e-1) > 1e-12 {
		t.Fatalf("nominal energy = %v, want 1", e)
	}
	// Quadratic in V: halving V quarters energy.
	ratio := n.DynamicEnergyRel(n.Vdd/2) / n.DynamicEnergyRel(n.Vdd)
	if math.Abs(ratio-0.25) > 1e-12 {
		t.Fatalf("V/2 energy ratio = %v, want 0.25", ratio)
	}
}

func TestDennardTrajectoryConstantPower(t *testing.T) {
	traj := Trajectory(Dennard, 6)
	for _, p := range traj {
		if math.Abs(p.PowerChip-1) > 0.02 {
			t.Fatalf("Dennard gen %d power = %v, want ~1", p.Gen, p.PowerChip)
		}
		if p.DarkFrac != 0 {
			t.Fatalf("Dennard gen %d dark = %v, want 0", p.Gen, p.DarkFrac)
		}
	}
	// Transistors double every generation.
	if traj[6].Transistors != 64 {
		t.Fatalf("gen6 transistors = %v", traj[6].Transistors)
	}
}

func TestPostDennardPowerDoubles(t *testing.T) {
	traj := Trajectory(PostDennard, 6)
	// Power roughly doubles per generation (within the small V droop).
	for g := 1; g <= 6; g++ {
		ratio := traj[g].PowerChip / traj[g-1].PowerChip
		if ratio < 1.7 || ratio > 2.1 {
			t.Fatalf("post-Dennard gen %d power ratio = %v, want ~2", g, ratio)
		}
	}
	// Dark silicon grows towards 1.
	if traj[6].DarkFrac < 0.9 {
		t.Fatalf("gen6 dark fraction = %v, want > 0.9", traj[6].DarkFrac)
	}
	for g := 1; g <= 6; g++ {
		if traj[g].DarkFrac <= traj[g-1].DarkFrac {
			t.Fatal("dark fraction should be monotone increasing")
		}
	}
}

func TestPowerGap(t *testing.T) {
	// After 5 generations the gap between regimes should be ~2^5 / small
	// droop factor — at least 20x.
	if g := PowerGapAtGen(5); g < 20 {
		t.Fatalf("power gap at gen5 = %v, want > 20", g)
	}
	if g := PowerGapAtGen(0); math.Abs(g-1) > 1e-9 {
		t.Fatalf("power gap at gen0 = %v, want 1", g)
	}
}

func TestDarkSiliconFraction(t *testing.T) {
	if d := Trajectory(PostDennard, 0)[0].DarkFrac; d != 0 {
		t.Fatalf("gen0 dark = %v", d)
	}
	if d := Trajectory(PostDennard, 4)[4].DarkFrac; d < 0.5 || d >= 1 {
		t.Fatalf("gen4 dark = %v, want in (0.5, 1)", d)
	}
}

// Property: trajectory fields are positive and monotone where expected.
func TestQuickTrajectoryInvariants(t *testing.T) {
	f := func(gRaw uint8, regimeRaw bool) bool {
		g := int(gRaw) % 12
		regime := Dennard
		if regimeRaw {
			regime = PostDennard
		}
		traj := Trajectory(regime, g)
		if len(traj) != g+1 {
			return false
		}
		for i, p := range traj {
			if p.Transistors <= 0 || p.Freq <= 0 || p.PowerChip <= 0 ||
				p.EnergyPerOp <= 0 || p.DarkFrac < 0 || p.DarkFrac >= 1 {
				return false
			}
			if i > 0 {
				if p.Transistors <= traj[i-1].Transistors {
					return false
				}
				if p.EnergyPerOp >= traj[i-1].EnergyPerOp {
					return false // energy per op must improve in both regimes
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCPUDBDecompositionRecovers80x(t *testing.T) {
	cfg := DefaultCPUDBConfig()
	r := stats.NewRNG(2014)
	db := GenerateCPUDB(cfg, r)
	d := DecomposePerformance(db)
	// The paper: architecture credited with ~80x since 1985, roughly equal
	// split. Accept [40, 160] given Monte-Carlo scatter.
	if d.ArchGain < 40 || d.ArchGain > 160 {
		t.Fatalf("arch gain = %v, want ~80", d.ArchGain)
	}
	if d.TechGain < 40 || d.TechGain > 160 {
		t.Fatalf("tech gain = %v, want ~80", d.TechGain)
	}
	// Split roughly equal in log space.
	split := math.Log(d.ArchGain) / math.Log(d.TotalGain)
	if split < 0.35 || split > 0.65 {
		t.Fatalf("arch log-share = %v, want ~0.5", split)
	}
}

func TestGateSpeedGain(t *testing.T) {
	if g := GateSpeedGain(90, 45); g <= 2 || g >= 3.5 {
		t.Fatalf("2x shrink speed gain = %v, want in (2, 3.5)", g)
	}
	if g := GateSpeedGain(45, 45); math.Abs(g-1) > 1e-12 {
		t.Fatalf("no shrink gain = %v", g)
	}
}

func TestDecomposeEmptyDB(t *testing.T) {
	d := DecomposePerformance(nil)
	if d.TotalGain != 0 {
		t.Fatal("empty DB should yield zero decomposition")
	}
}

func TestNTVEnergyUCurve(t *testing.T) {
	m := NewNTVModel(Node45(), 100e-12)
	vMin, eMin := m.MinEnergyPoint()
	// Minimum energy point lies strictly between Vth and Vdd.
	if vMin <= m.Node.Vth || vMin >= m.Node.Vdd {
		t.Fatalf("min energy V = %v outside (Vth, Vdd)", vMin)
	}
	// The minimum beats nominal by a meaningful factor (NTV promise).
	eNom := m.EnergyPerOp(m.Node.Vdd)
	if eMin >= eNom/2 {
		t.Fatalf("NTV gain too small: min %v vs nominal %v", eMin, eNom)
	}
	// U-shape: energy at Vth+0.02 exceeds the minimum.
	if m.EnergyPerOp(m.Node.Vth+0.02) <= eMin {
		t.Fatal("energy should rise below the minimum point")
	}
}

func TestNTVErrorRateMonotone(t *testing.T) {
	m := NewNTVModel(Node45(), 100e-12)
	prev := -1.0
	for v := m.Node.Vdd; v > m.Node.Vth+0.02; v -= 0.01 {
		e := m.ErrorRate(v)
		if e < 0 || e > 1 {
			t.Fatalf("error rate %v out of [0,1]", e)
		}
		if e < prev-1e-12 {
			t.Fatal("error rate should not fall as V falls")
		}
		prev = e
	}
	// Nominal operation is effectively error-free.
	if e := m.ErrorRate(m.Node.Vdd); e > 1e-6 {
		t.Fatalf("nominal error rate = %v", e)
	}
}

func TestNTVEffectiveEnergyRetriesHurtNearVth(t *testing.T) {
	m := NewNTVModel(Node45(), 100e-12)
	// Close to threshold, effective energy (with retries) must exceed raw.
	v := m.Node.Vth + 0.03
	if m.EffectiveEnergyPerOp(v) <= m.EnergyPerOp(v) {
		t.Fatal("retry overhead missing near threshold")
	}
	// At nominal they coincide (no errors).
	vn := m.Node.Vdd
	if math.Abs(m.EffectiveEnergyPerOp(vn)-m.EnergyPerOp(vn)) > 1e-15 {
		t.Fatal("effective energy should equal raw at nominal")
	}
}

func TestNTVThroughputFalls(t *testing.T) {
	m := NewNTVModel(Node45(), 100e-12)
	if m.ThroughputRel(0.6) >= m.ThroughputRel(1.0) {
		t.Fatal("throughput should fall with voltage")
	}
	if math.Abs(m.ThroughputRel(m.Node.Vdd)-1) > 1e-9 {
		t.Fatal("nominal throughput should be 1")
	}
}
