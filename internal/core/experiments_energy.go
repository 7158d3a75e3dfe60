package core

import (
	"context"
	"fmt"

	"repro/internal/accel"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E4",
		Title: "Specialization energy efficiency and its coverage limit",
		PaperClaim: "Specialization can give 100x higher energy efficiency, but no " +
			"known solutions harness it for broad classes of applications (§1.2, §2.2)",
		Run: runE4,
	})
	register(Experiment{
		ID:    "E5",
		Title: "Operand fetch energy vs compute energy",
		PaperClaim: "Fetching the operands for a floating-point multiply-add can " +
			"consume one to two orders of magnitude more energy than the operation (§2.2)",
		Params: []ParamSpec{
			{Name: "operands", Kind: IntParam, Default: 3, Min: 1, Max: 8,
				Doc: "operands fetched per FMA"},
			{Name: "tile", Kind: IntParam, Default: 4096, Min: 256, Max: 65536,
				Doc: "problem-size argument for kernel arithmetic intensity"},
		},
		Run: runE5,
	})
	register(Experiment{
		ID:    "E6",
		Title: "The sensor-to-datacenter efficiency ladder",
		PaperClaim: "Goal: exa-op datacenter in 10MW, peta-op server in 10kW, tera-op " +
			"portable in 10W, giga-op sensor in 10mW — 2-3 orders of magnitude better " +
			"energy efficiency (§2.2)",
		Run: runE6,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Communication/computation energy crossover",
		PaperClaim: "Communication energy outgrows computation energy; photonics and " +
			"3D stacking change communication costs radically (§1.2, §2.3)",
		Run: runE10,
	})
}

func runE4(ctx context.Context, _ Params) Result {
	tbl45 := energy.Table45()
	out := report.NewTable("E4: specialization per kernel (45nm)",
		"kernel", "gp energy/op", "accel energy/op", "raw factor", "coverage", "chip-level gain")
	for _, k := range workload.Kernels() {
		op := tbl45.IntOp
		if k.Name == "gemm" || k.Name == "fft" || k.Name == "stencil" || k.Name == "conv" {
			op = tbl45.FPOp
		}
		gp := tbl45.GPInstruction(op)
		acc := tbl45.AccelOp(op)
		raw := float64(gp) / float64(acc)
		covered := accel.CoveredEnergyGain(k.AccelFrac, raw)
		out.AddRow(k.Name, gp.String(), acc.String(),
			report.FormatFloat(raw), report.FormatFloat(k.AccelFrac),
			report.FormatFloat(covered))
	}
	// NRE side: where does custom silicon pay?
	pts := accel.StandardImplPoints()
	var asic, fpga accel.ImplPoint
	for _, p := range pts {
		switch p.Name {
		case "asic":
			asic = p
		case "fpga":
			fpga = p
		}
	}
	cross := accel.CrossoverVolume(asic, fpga)
	intFactor := accel.SpecializationFactor(tbl45, tbl45.IntOp)
	cryptoGain := accel.CoveredEnergyGain(workload.Crypto.AccelFrac, intFactor)
	return Result{
		Table: out,
		Findings: []string{
			finding("raw specialization factor (int ops): %.0fx (paper: ~100x)", intFactor),
			finding("chip-level gain for crypto at %.0f%% coverage: %.0fx — coverage, not the accelerator, is the limit",
				workload.Crypto.AccelFrac*100, cryptoGain),
			finding("ASIC/FPGA per-unit cost crossover: %.2g units (paper: NRE 'prohibitive for all but highest-volume')",
				cross),
		},
	}
}

func runE5(ctx context.Context, p Params) Result {
	operands := p.Int("operands")
	tile := p.Int("tile")
	tbl := energy.Table45()
	out := report.NewTable(
		fmt.Sprintf("E5: energy to fetch %d FMA operands (45nm, 64-bit)", operands),
		"operand source", "fetch energy", "ratio vs 50pJ FMA")
	for _, lvl := range []string{"reg", "l1", "l2", "l3", "dram"} {
		// Iteration-boundary cancellation check: a canceled caller's
		// partial table is discarded by RunWith, so bail out now rather
		// than finish work nobody will read.
		if ctx.Err() != nil {
			return Result{}
		}
		fetch := units.Energy(operands) * tbl.OperandFetch(lvl)
		ratio := float64(fetch) / float64(tbl.FPOp)
		out.AddRow(lvl, fetch.String(), report.FormatFloat(ratio)+"x")
	}
	dramRatio := float64(units.Energy(operands)*tbl.DRAM) / float64(tbl.FPOp)
	l3Ratio := float64(units.Energy(operands)*tbl.SRAM1MB) / float64(tbl.FPOp)
	// Roofline view: which standard kernels live below the energy-balance
	// intensity (memory burns most of their joules).
	rl := energy.StandardRoofline()
	memBound := ""
	for _, k := range workload.Kernels() {
		if ctx.Err() != nil {
			return Result{}
		}
		if rl.EnergyPerOp(k.Intensity(tile)) > 2*rl.OpEnergy {
			if memBound != "" {
				memBound += ", "
			}
			memBound += k.Name
		}
	}
	res := Result{
		Table: out,
		Findings: []string{
			finding("DRAM operand fetch costs %.0fx the FMA (paper: 1-2 orders of magnitude)", dramRatio),
			finding("even a large on-chip SRAM costs %.0fx (paper: memory hierarchies must be energy-optimized)", l3Ratio),
			finding("energy roofline: memory dominates the joules below %.0f ops/byte; kernels in that regime: %s",
				rl.EnergyBalanceIntensity(), memBound),
		},
	}
	res.SetHeadline(dramRatio)
	return res
}

func runE6(ctx context.Context, _ Params) Result {
	out := report.NewTable("E6: the paper's efficiency ladder",
		"platform", "target", "budget", "target ops/W", "today ops/W", "gap")
	var maxGap, minGap float64
	minGap = 1e18
	for _, p := range energy.Ladder() {
		gap := p.Gap()
		if gap > maxGap {
			maxGap = gap
		}
		if gap < minGap {
			minGap = gap
		}
		out.AddRow(p.Name,
			p.TargetOpsPerSec.String()+"/s",
			p.PowerBudget.String(),
			units.SI(p.TargetOpsPerWatt(), "op/W"),
			units.SI(p.TodayOpsPerWatt, "op/W"),
			report.FormatFloat(gap)+"x")
	}
	return Result{
		Table: out,
		Findings: []string{
			finding("every rung demands 100 Gops/W; gaps span %.0fx to %.0fx (paper: 'two-to-three orders of magnitude')",
				minGap, maxGap),
			finding("portable rung starts from ~10 Gops/W (paper's 'today's ~10 giga-operations/watt')"),
		},
	}
}

func runE10(ctx context.Context, _ Params) Result {
	links := noc.StandardLinks()
	elec, phot, board := links[0], links[1], links[2]
	tbl45 := energy.Table45()
	fig := report.NewFigure("E10: energy to move 64 bits vs distance",
		"distance (mm)", "energy (pJ)")
	se := fig.AddSeries("electrical")
	sp := fig.AddSeries("photonic")
	sb := fig.AddSeries("board serdes")
	sf := fig.AddSeries("fp64 fma (compute)")
	for _, mm := range []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000} {
		se.Add(mm, float64(elec.EnergyPerBit(mm))*64/1e-12)
		sp.Add(mm, float64(phot.EnergyPerBit(mm))*64/1e-12)
		sb.Add(mm, float64(board.EnergyPerBit(mm))*64/1e-12)
		sf.Add(mm, float64(tbl45.FPOp)/1e-12)
	}
	commCross := noc.CommComputeCrossoverMM(elec, tbl45.FPOp)
	photCross := noc.ElectricalPhotonicCrossoverMM(elec, phot)
	flat := noc.NewMesh2D(8, 8)
	stacked := noc.NewMesh3D(8, 8, 4)
	gain3D := float64(flat.MeanEnergyPerFlit()) / float64(stacked.MeanEnergyPerFlit())
	return Result{
		Figure: fig,
		Findings: []string{
			finding("moving one FMA's result costs more than computing it beyond %.1f mm (paper: communication outgrows computation)", commCross),
			finding("photonics beats electrical wires beyond %.0f mm (paper: photonics changes communication costs radically)", photCross),
			finding("3D-stacking a 64-node mesh into 4 layers cuts mean flit energy %.2fx (paper: 3D changes system design)", gain3D),
			fmt.Sprintf("Rent's rule: 64x more gates with p=0.6 widens the pin-bandwidth gap %.1fx (Table 1's restricted communication)",
				noc.PinBandwidthGap(64, 0.6)),
		},
	}
}
