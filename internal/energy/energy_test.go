package energy

import (
	"math"
	"testing"

	"repro/internal/tech"
	"repro/internal/units"
)

func TestTable45OperandGap(t *testing.T) {
	tb := Table45()
	// Paper/Keckler claim: fetching FP operands costs 1-2 orders of
	// magnitude more than the FP op. Three operands from DRAM:
	dramFetch := 3 * tb.DRAM
	ratio := float64(dramFetch) / float64(tb.FPOp)
	if ratio < 10 || ratio > 1000 {
		t.Fatalf("DRAM operand/op ratio = %v, want 1-2 orders of magnitude", ratio)
	}
	// Even from a large on-chip SRAM it is roughly an order.
	sramFetch := 3 * tb.SRAM1MB
	if r := float64(sramFetch) / float64(tb.FPOp); r < 3 {
		t.Fatalf("SRAM operand/op ratio = %v, want > 3", r)
	}
}

func TestMemoryHierarchyMonotone(t *testing.T) {
	tb := Table45()
	seq := []units.Energy{tb.RegFile, tb.SRAM8KB, tb.SRAM32KB, tb.SRAM256KB, tb.SRAM1MB, tb.DRAM}
	for i := 1; i < len(seq); i++ {
		if seq[i] <= seq[i-1] {
			t.Fatalf("hierarchy energy not monotone at level %d", i)
		}
	}
}

func TestGPvsAccelFactor(t *testing.T) {
	tb := Table45()
	// For a small op (int add), stripping instruction overhead gives about
	// two orders of magnitude — the paper's "100x" specialization claim.
	gp := tb.GPInstruction(tb.IntOp)
	acc := tb.AccelOp(tb.IntOp)
	ratio := float64(gp) / float64(acc)
	if ratio < 50 || ratio > 300 {
		t.Fatalf("int specialization factor = %v, want ~100", ratio)
	}
	// For a big FP op the factor is smaller (datapath dominates).
	fpRatio := float64(tb.GPInstruction(tb.FPOp)) / float64(tb.AccelOp(tb.FPOp))
	if fpRatio >= ratio {
		t.Fatal("FP specialization factor should be below int factor")
	}
	if fpRatio < 2 {
		t.Fatalf("FP specialization factor = %v, want > 2", fpRatio)
	}
}

func TestForNodeScaling(t *testing.T) {
	n7, _ := tech.NodeByName("7nm")
	t7 := ForNode(n7)
	t45 := Table45()
	// Logic energy improves substantially at 7nm.
	if float64(t7.FPOp) >= float64(t45.FPOp)*0.5 {
		t.Fatalf("7nm FPOp = %v, want well below 45nm %v", t7.FPOp, t45.FPOp)
	}
	// Radio does not scale.
	if t7.RadioPerBit != t45.RadioPerBit {
		t.Fatal("radio energy should not scale with node")
	}
	// Communication scales slower than logic: DRAM/FPOp ratio grows.
	r45 := float64(t45.DRAM) / float64(t45.FPOp)
	r7 := float64(t7.DRAM) / float64(t7.FPOp)
	if r7 <= r45 {
		t.Fatalf("comm/compute gap should widen: 45nm %v vs 7nm %v", r45, r7)
	}
}

func TestForNode45IsIdentityForLogic(t *testing.T) {
	tb := ForNode(tech.Node45())
	base := Table45()
	if math.Abs(float64(tb.FPOp-base.FPOp)) > 1e-18 {
		t.Fatalf("ForNode(45nm) changed FPOp: %v vs %v", tb.FPOp, base.FPOp)
	}
	if math.Abs(float64(tb.DRAM-base.DRAM)) > 1e-15 {
		t.Fatalf("ForNode(45nm) changed DRAM: %v vs %v", tb.DRAM, base.DRAM)
	}
}

func TestOperandFetchLevels(t *testing.T) {
	tb := Table45()
	levels := []string{"reg", "l1", "l2", "l3", "dram"}
	prev := units.Energy(0)
	for _, l := range levels {
		e := tb.OperandFetch(l)
		if e <= prev {
			t.Fatalf("level %s not more expensive than previous", l)
		}
		prev = e
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown level did not panic")
		}
	}()
	tb.OperandFetch("l9")
}

func TestLadderTargets(t *testing.T) {
	rungs := Ladder()
	if len(rungs) != 4 {
		t.Fatalf("ladder rungs = %d", len(rungs))
	}
	for _, p := range rungs {
		// Every rung demands exactly 100 GOPS/W.
		if math.Abs(p.TargetOpsPerWatt()-1e11) > 1 {
			t.Errorf("%s target = %v ops/W, want 1e11", p.Name, p.TargetOpsPerWatt())
		}
		if p.Gap() <= 1 {
			t.Errorf("%s gap = %v, want > 1", p.Name, p.Gap())
		}
	}
	// Server-class rungs need 2-3 orders of magnitude, the paper's claim.
	for _, p := range rungs {
		if p.Name == "departmental" || p.Name == "datacenter" {
			if p.Gap() < 100 || p.Gap() > 1000 {
				t.Errorf("%s gap = %v, want within [100,1000]", p.Name, p.Gap())
			}
		}
	}
}
