package accel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/energy"
)

func TestSpecializationFactorIs100xClass(t *testing.T) {
	tbl := energy.Table45()
	f := SpecializationFactor(tbl, tbl.IntOp)
	if f < 50 || f > 300 {
		t.Fatalf("int specialization = %v, want ~100", f)
	}
}

func TestCoveredEnergyGain(t *testing.T) {
	// The paper's coverage problem: a 100x-efficient accelerator covering
	// half the work yields barely 2x chip-level gain.
	g := CoveredEnergyGain(0.5, 100)
	if g < 1.9 || g > 2.1 {
		t.Fatalf("half-coverage energy gain = %v, want ~2", g)
	}
}

// TestCoveredSpeedupLimits checks the accelerator-Amdahl law at its
// limits. Speedup and energy gain obey the same law; CoveredEnergyGain
// is its one door.
func TestCoveredSpeedupLimits(t *testing.T) {
	// Full coverage: the accelerator's raw factor.
	if g := CoveredEnergyGain(1, 100); math.Abs(g-100) > 1e-9 {
		t.Fatalf("full coverage = %v", g)
	}
	// No coverage: 1.
	if g := CoveredEnergyGain(0, 100); math.Abs(g-1) > 1e-9 {
		t.Fatalf("no coverage = %v", g)
	}
	// 90% coverage at infinite-ish efficiency caps at 10x: coverage rules.
	if g := CoveredEnergyGain(0.9, 1e9); math.Abs(g-10) > 1e-3 {
		t.Fatalf("90%% coverage cap = %v, want ~10", g)
	}
}

func TestCoverageChecks(t *testing.T) {
	for i, f := range []func(){
		func() { CoveredEnergyGain(-0.1, 10) },
		func() { CoveredEnergyGain(1.1, 10) },
		func() { CoveredEnergyGain(0.5, 0) },
		func() { CoveredEnergyGain(0.5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// Property: covered gains are monotone in coverage and bounded by the raw
// factor.
func TestQuickCoveredMonotone(t *testing.T) {
	f := func(c1Raw, c2Raw uint8, sRaw uint16) bool {
		c1 := float64(c1Raw) / 255
		c2 := float64(c2Raw) / 255
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		s := 1 + float64(sRaw)
		g1, g2 := CoveredEnergyGain(c1, s), CoveredEnergyGain(c2, s)
		return g1 <= g2+1e-9 && g2 <= s+1e-9 && g1 >= 1-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossoverVolume(t *testing.T) {
	pts := StandardImplPoints()
	asic, fpga := pts[0], pts[2]
	v := CrossoverVolume(asic, fpga)
	if v <= 0 || math.IsInf(v, 1) {
		t.Fatalf("asic/fpga crossover = %v", v)
	}
	// Per-unit cost: NRE amortized over the volume plus the part.
	cost := func(p ImplPoint, volume float64) float64 { return p.NRE/volume + p.UnitCost }
	// At the crossover the costs match.
	if math.Abs(cost(asic, v)-cost(fpga, v)) > 1e-6 {
		t.Fatal("costs should match at crossover")
	}
	// Crossover in the right direction: below it FPGA cheaper.
	if cost(asic, v/2) <= cost(fpga, v/2) {
		t.Fatal("FPGA should be cheaper below crossover")
	}
}

func TestCrossoverNever(t *testing.T) {
	a := ImplPoint{NRE: 10, UnitCost: 10}
	b := ImplPoint{NRE: 0, UnitCost: 5}
	if !math.IsInf(CrossoverVolume(a, b), 1) {
		t.Fatal("a never beats b; crossover should be +Inf")
	}
}

func TestDarkSiliconAllocator(t *testing.T) {
	cands := []Candidate{
		{Name: "bigcore", AreaBCE: 16, PowerW: 8, Throughput: 4, MaxInstances: 2},
		{Name: "little", AreaBCE: 1, PowerW: 0.5, Throughput: 0.8},
		{Name: "conv-accel", AreaBCE: 4, PowerW: 1, Throughput: 10, MaxInstances: 4},
	}
	a := AllocateDarkSilicon(cands, 128, 20)
	// The accelerator has the best perf/W: all 4 instances placed.
	if a.Counts["conv-accel"] != 4 {
		t.Fatalf("conv-accel count = %d, want 4", a.Counts["conv-accel"])
	}
	if a.PowerUsed > 20 || a.AreaUsed > 128 {
		t.Fatal("budgets violated")
	}
	if a.Throughput <= 0 {
		t.Fatal("no throughput allocated")
	}
}

func TestDarkSiliconPowerLimited(t *testing.T) {
	// Power budget far below what the area could hold: most area dark.
	cands := []Candidate{{Name: "core", AreaBCE: 1, PowerW: 1, Throughput: 1}}
	a := AllocateDarkSilicon(cands, 1000, 50)
	if a.Counts["core"] != 50 {
		t.Fatalf("cores = %d, want 50 (power-capped)", a.Counts["core"])
	}
	if df := a.DarkFraction(1000); df < 0.94 {
		t.Fatalf("dark fraction = %v, want ~0.95", df)
	}
}

// Property: allocator never violates budgets.
func TestQuickAllocatorBudgets(t *testing.T) {
	f := func(areaRaw, powerRaw uint8) bool {
		area := float64(areaRaw%100) + 1
		power := float64(powerRaw%50) + 1
		cands := []Candidate{
			{Name: "a", AreaBCE: 3, PowerW: 2, Throughput: 5},
			{Name: "b", AreaBCE: 1, PowerW: 1, Throughput: 1},
		}
		al := AllocateDarkSilicon(cands, area, power)
		return al.AreaUsed <= area+1e-9 && al.PowerUsed <= power+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
