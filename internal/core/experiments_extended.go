package core

import (
	"context"
	"fmt"

	"repro/internal/noc"
	"repro/internal/reliability"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:    "E21",
		Title: "On-chip network contention and 3D relief",
		PaperClaim: "Packet-based interconnection makes more efficient use of " +
			"expensive wires; without the ability to analyze and orchestrate " +
			"communication one cannot adhere to performance targets (§2.2, §2.4)",
		Params: []ParamSpec{
			// Even side lengths keep side^2 divisible by every layer count
			// in range, so the 3D fold is always exact.
			{Name: "side", Kind: IntParam, Default: 8, Min: 2, Max: 16, Step: 2,
				Doc: "planar mesh side (side x side nodes)"},
			{Name: "layers", Kind: IntParam, Default: 4, Min: 2, Max: 4, Step: 2,
				Doc: "stacked layers the same node count folds into"},
		},
		Run: runE21,
	})
	register(Experiment{
		ID:    "E22",
		Title: "Checkpoint/restart at scale",
		PaperClaim: "Architect ways of continuously monitoring system health and " +
			"applying contingency actions; resilience overheads grow with scale (§2.4)",
		Run: runE22,
	})
}

func runE21(ctx context.Context, p Params) Result {
	side := p.Int("side")
	layers := p.Int("layers")
	rates := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	flat := noc.NewMesh2D(side, side)
	stacked := noc.NewMesh3D(side, side, layers)
	fig := report.NewFigure(
		fmt.Sprintf("E21: %d-node mesh latency vs offered load (flit-level sim)", flat.Nodes()),
		"offered load (flits/node/cycle)", "mean latency (cycles)")
	s2 := fig.AddSeries(fmt.Sprintf("2D %dx%d", side, side))
	s3 := fig.AddSeries(fmt.Sprintf("3D %d-layer", layers))
	rows2 := noc.SaturationSweep(flat, rates, 2014)
	rows3 := noc.SaturationSweep(stacked, rates, 2014)
	var sat2, sat3 float64
	base2 := rows2[0][1]
	base3 := rows3[0][1]
	for i := range rates {
		s2.Add(rows2[i][0], rows2[i][1])
		s3.Add(rows3[i][0], rows3[i][1])
		if sat2 == 0 && rows2[i][1] > 3*base2 {
			sat2 = rows2[i][0]
		}
		if sat3 == 0 && rows3[i][1] > 3*base3 {
			sat3 = rows3[i][0]
		}
	}
	if sat2 == 0 {
		sat2 = rates[len(rates)-1]
	}
	if sat3 == 0 {
		sat3 = rates[len(rates)-1]
	}
	res := Result{
		Figure: fig,
		Findings: []string{
			finding("2D mesh latency blows past 3x zero-load at ~%.2f flits/node/cycle; the 3D fold holds to ~%.2f (shorter average routes unload center channels)",
				sat2, sat3),
			finding("zero-load latency: %.1f cycles (2D) vs %.1f (3D) for the same %d nodes",
				base2, base3, flat.Nodes()),
			finding("delivered throughput saturates below offered load past the knee — communication, not compute, sets the ceiling (paper: orchestrate communication)"),
		},
	}
	// Headline: the 3D fold's saturation relief over the planar mesh.
	res.SetHeadline(sat3 / sat2)
	return res
}

func runE22(ctx context.Context, _ Params) Result {
	nodeMTTF := 5.0 * 365 * 86400 // 5-year node MTTF
	tbl := report.NewTable("E22: checkpoint/restart efficiency vs machine scale",
		"nodes", "system MTTF (h)", "Young interval (min)", "useful-work efficiency")
	scales := []int{1000, 10000, 50000, 100000, 500000}
	var effSmall, effBig float64
	for _, n := range scales {
		c := reliability.Checkpointing{
			MTTF:           reliability.SystemMTTF(nodeMTTF, n),
			CheckpointCost: 120,
			RestartCost:    300,
		}
		eff := c.OptimalEfficiency()
		tbl.AddRowf(n, c.MTTF/3600, c.YoungInterval()/60, eff)
		if n == scales[0] {
			effSmall = eff
		}
		if n == scales[len(scales)-1] {
			effBig = eff
		}
	}
	// What faster (NVM-backed) checkpoints buy at the largest scale.
	fast := reliability.Checkpointing{
		MTTF:           reliability.SystemMTTF(nodeMTTF, scales[len(scales)-1]),
		CheckpointCost: 5, // NVM burst buffer
		RestartCost:    30,
	}
	return Result{
		Table: tbl,
		Findings: []string{
			finding("efficiency erodes from %.0f%% at 1k nodes to %.0f%% at 500k — reliability is a first-order design constraint at scale (Table 1)",
				effSmall*100, effBig*100),
			finding("NVM-fast checkpoints (120s -> 5s) recover efficiency to %.0f%% at 500k nodes — new memory technology solving a reliability problem (§2.3 meets §2.4)",
				fast.OptimalEfficiency()*100),
		},
	}
}
