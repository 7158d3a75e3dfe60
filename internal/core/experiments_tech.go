package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tech"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Technology scaling with and without Dennard",
		PaperClaim: "Transistor count still 2x every 18-24 months, but power/chip " +
			"would double each generation without voltage scaling (Table 1)",
		Params: []ParamSpec{
			{Name: "gens", Kind: IntParam, Default: 6, Min: 1, Max: 12,
				Doc: "process generations projected beyond gen 0"},
		},
		Run: runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Architecture's share of performance growth (CPU DB)",
		PaperClaim: "Danowitz et al. apportion growth roughly equally between " +
			"technology and architecture, with architecture credited ~80x since 1985",
		Run: runE2,
	})
	register(Experiment{
		ID:    "T1",
		Title: "Regenerate Table 1: technology's challenges",
		PaperClaim: "Five rows contrasting late-20th-century assumptions with " +
			"the new reality",
		Run: runT1,
	})
}

func runE1(ctx context.Context, p Params) Result {
	gens := p.Int("gens")
	dennard := tech.Trajectory(tech.Dennard, gens)
	post := tech.Trajectory(tech.PostDennard, gens)
	tbl := report.NewTable("E1: scaling trajectories (relative to gen 0)",
		"gen", "transistors", "dennard power", "post-dennard power", "dark silicon")
	for g := 0; g <= gens; g++ {
		tbl.AddRowf(g, dennard[g].Transistors, dennard[g].PowerChip,
			post[g].PowerChip, post[g].DarkFrac)
	}
	gap := tech.PowerGapAtGen(gens)
	res := Result{
		Table: tbl,
		Findings: []string{
			finding("transistors at gen %d: %.0fx (paper: 2x per generation holds)",
				gens, dennard[gens].Transistors),
			finding("Dennard power at gen %d: %.2fx (paper: near-constant)",
				gens, dennard[gens].PowerChip),
			finding("post-Dennard power gap at gen %d: %.1fx (paper: 'not viable for power/chip to double')",
				gens, gap),
			finding("dark silicon at gen %d: %.0f%% of the chip must idle under a fixed budget",
				gens, post[gens].DarkFrac*100),
		},
	}
	res.SetHeadline(gap)
	return res
}

func runE2(ctx context.Context, _ Params) Result {
	cfg := tech.DefaultCPUDBConfig()
	db := tech.GenerateCPUDB(cfg, stats.NewRNG(1985))
	d := tech.DecomposePerformance(db)
	tbl := report.NewTable("E2: CPU DB performance decomposition 1985-2010",
		"component", "gain", "log share")
	logTotal := math.Log(d.TotalGain)
	tbl.AddRowf("total", d.TotalGain, 1.0)
	tbl.AddRowf("technology (gate speed)", d.TechGain, math.Log(d.TechGain)/logTotal)
	tbl.AddRowf("architecture (residual)", d.ArchGain, math.Log(d.ArchGain)/logTotal)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("architecture gain: %.0fx (paper: ~80x)", d.ArchGain),
			finding("technology gain: %.0fx (paper: roughly equal split)", d.TechGain),
			finding("architecture log-share: %.0f%% (paper: ~50%%)",
				100*math.Log(d.ArchGain)/logTotal),
		},
	}
}

func runT1(ctx context.Context, _ Params) Result {
	gens := 5
	post := tech.Trajectory(tech.PostDennard, gens)
	nodes := tech.Nodes()
	oldN, newN := nodes[0], nodes[len(nodes)-1]
	t45 := energy.Table45()
	t7 := energy.ForNode(newN)
	commOld := float64(t45.DRAM) / float64(t45.FPOp)
	commNew := float64(t7.DRAM) / float64(t7.FPOp)

	tbl := report.NewTable("T1: Table 1 regenerated from models",
		"challenge", "late 20th century", "new reality (measured)")
	tbl.AddRow("Moore's law",
		"2x transistors/chip per gen",
		fmt.Sprintf("still 2x: gen %d has %.0fx transistors", gens, post[gens].Transistors))
	tbl.AddRow("Dennard scaling",
		"near-constant power/chip",
		fmt.Sprintf("gone: full-speed power %.1fx after %d gens; %.0f%% dark at fixed budget",
			post[gens].PowerChip, gens, post[gens].DarkFrac*100))
	tbl.AddRow("Transistor reliability",
		fmt.Sprintf("modest (%.0f FIT/Mb at %s), hidden by ECC", oldN.SoftErrorFITPerMb, oldN.Name),
		fmt.Sprintf("worsening: %.0f FIT/Mb at %s (%.0fx)", newN.SoftErrorFITPerMb,
			newN.Name, newN.SoftErrorFITPerMb/oldN.SoftErrorFITPerMb))
	tbl.AddRow("Computation vs communication",
		fmt.Sprintf("DRAM fetch / FP op = %.0fx at 45nm", commOld),
		fmt.Sprintf("%.0fx at 7nm: communication outscales computation", commNew))
	tbl.AddRow("One-time (NRE) costs",
		"amortizable for mass-market parts",
		"ASIC needs ~1.2M units to beat FPGA per-unit cost (see E4)")
	return Result{
		Table: tbl,
		Findings: []string{
			finding("communication/computation energy ratio grew %.1fx across nodes (paper: 'communication more expensive than computation')",
				commNew/commOld),
			finding("soft-error density grew %.0fx from %s to %s (paper: 'no longer easy to hide')",
				newN.SoftErrorFITPerMb/oldN.SoftErrorFITPerMb, oldN.Name, newN.Name),
		},
	}
}
