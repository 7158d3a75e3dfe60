package core

import (
	"context"
	"fmt"

	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:    "E20",
		Title: "Software locality management (cache blocking)",
		PaperClaim: "We need compilation systems and tools that manage and enhance " +
			"locality; runtimes that manage the memory hierarchy (§2.2 'At the " +
			"Software Level')",
		Params: []ParamSpec{
			// Multiples of 32 keep every blocking factor (4..32) an exact
			// divisor of the matrix dimension.
			{Name: "n", Kind: IntParam, Default: 96, Min: 32, Max: 256, Step: 32,
				Doc: "matrix dimension (n x n matmul)"},
		},
		Run: runE20,
	})
}

func runE20(ctx context.Context, p Params) Result {
	n := p.Int("n")
	tbl := report.NewTable(
		fmt.Sprintf("E20: matmul (%dx%d, %dKB working set) on an embedded 2-level hierarchy",
			n, n, 3*n*n*8/1024),
		"loop nest", "accesses", "DRAM accesses", "AMAT (ns)", "energy (mJ)")
	naive := mem.ReplayTrace(mem.EmbeddedHierarchy(energy.Table45()),
		func(v func(uint64, bool)) { mem.VisitMatMulNaive(n, v) })
	tbl.AddRowf("naive ijk", float64(naive.Accesses), float64(naive.DRAMAccesses),
		naive.AMATSeconds*1e9, naive.EnergyJoules*1e3)
	var best mem.TraceResult
	bestBlock := 0
	for _, block := range []int{4, 8, 16, 32} {
		res := mem.ReplayTrace(mem.EmbeddedHierarchy(energy.Table45()),
			func(v func(uint64, bool)) { mem.VisitMatMulBlocked(n, block, v) })
		tbl.AddRowf(report.FormatFloat(float64(block))+"-blocked",
			float64(res.Accesses), float64(res.DRAMAccesses),
			res.AMATSeconds*1e9, res.EnergyJoules*1e3)
		if bestBlock == 0 || res.EnergyJoules < best.EnergyJoules {
			best, bestBlock = res, block
		}
	}
	res := Result{
		Table: tbl,
		Findings: []string{
			finding("blocking (best block %d) cuts DRAM traffic %.0fx and memory energy %.1fx on identical work (paper: locality management wrings out waste)",
				bestBlock, float64(naive.DRAMAccesses)/float64(best.DRAMAccesses),
				naive.EnergyJoules/best.EnergyJoules),
			finding("AMAT improves %.1fx purely from loop-nest structure — a software-level lever on a hardware-level cost",
				naive.AMATSeconds/best.AMATSeconds),
		},
	}
	res.SetHeadline(float64(naive.DRAMAccesses) / float64(best.DRAMAccesses))
	return res
}
