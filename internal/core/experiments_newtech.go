package core

import (
	"context"

	"repro/internal/nvm"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/tech"
)

func init() {
	register(Experiment{
		ID:    "E8",
		Title: "Near-threshold voltage operation",
		PaperClaim: "Near-threshold operation has tremendous potential to reduce " +
			"power but at the cost of reliability, driving resiliency-centered design (§1.2)",
		Run: runE8,
	})
	register(Experiment{
		ID:    "E9",
		Title: "Rethinking the memory/storage stack with NVM",
		PaperClaim: "Emerging NVM promises greater density and power efficiency but " +
			"requires re-architecting for asymmetric latency and wear-out (§2.3)",
		Run: runE9,
	})
}

func runE8(ctx context.Context, _ Params) Result {
	m := tech.NewNTVModel(tech.Node45(), 100e-12)
	fig := report.NewFigure("E8: energy per op vs supply voltage (45nm)",
		"vdd (V)", "energy per op (pJ) / error rate")
	raw := fig.AddSeries("energy/op (pJ)")
	eff := fig.AddSeries("energy/correct-op with retry (pJ)")
	errs := fig.AddSeries("error rate (x1e6)")
	for v := 0.34; v <= 1.001; v += 0.033 {
		raw.Add(v, m.EnergyPerOp(v)/1e-12)
		e := m.EffectiveEnergyPerOp(v)
		if e < 1e-9 { // clip unreadable blowups for the figure
			eff.Add(v, e/1e-12)
		}
		errs.Add(v, m.ErrorRate(v)*1e6)
	}
	vMin, eMin := m.MinEnergyPoint()
	eNom := m.EnergyPerOp(m.Node.Vdd)
	// Resilience cost: protect NTV operation with a 12.5% ECC-style
	// overhead (SECDED's 8 check bits per 64 data bits) and compare.
	protected := eMin * 1.125
	return Result{
		Figure: fig,
		Findings: []string{
			finding("minimum-energy point at %.2fV (Vth=%.2fV, nominal %.2fV): %.1fx below nominal energy (paper: tremendous potential)",
				vMin, m.Node.Vth, m.Node.Vdd, eNom/eMin),
			finding("error rate at the MEP: %.2g; 60mV below it: %.2g — reliability is the price (paper: resiliency-centered design)",
				m.ErrorRate(vMin), m.ErrorRate(vMin-0.06)),
			finding("with 12.5%% protection overhead the net NTV gain is still %.1fx", eNom/protected),
			finding("throughput at the MEP is %.1fx below nominal — NTV trades speed for efficiency",
				1/m.ThroughputRel(vMin)),
		},
	}
}

func runE9(ctx context.Context, _ Params) Result {
	w := nvm.TxnWorkload{ReadsPerTxn: 20, PersistsPerTxn: 2}
	tbl := report.NewTable("E9: memory/storage stacks on a persistence-bound transaction",
		"stack", "read latency", "persist latency", "txn latency", "txn energy", "idle power (64GB+1TB)")
	stacks := []nvm.Stack{nvm.LegacyStack(), nvm.FlashStack(), nvm.HybridStack(), nvm.NVMStack()}
	for _, s := range stacks {
		tbl.AddRow(s.Name,
			s.ReadLatency().String(),
			s.PersistLatency().String(),
			s.TxnLatency(w).String(),
			s.TxnEnergy(w).String(),
			s.IdlePower(64, 1000).String())
	}
	legacy, single := stacks[0], stacks[3]
	latGain := float64(legacy.TxnLatency(w)) / float64(single.TxnLatency(w))
	idleGain := float64(legacy.IdlePower(64, 1000)) / float64(single.IdlePower(64, 1000))

	// Wear: the cost NVM charges for those wins.
	const lines = 256
	const endurance = 5000
	hot := func() int { return 17 }
	direct := nvm.SimulateWear(nvm.DirectMapper{N: lines}, endurance, lines*endurance, hot)
	sg := nvm.SimulateWear(nvm.NewStartGap(lines, 16), endurance, lines*endurance, hot)
	z := stats.NewZipf(lines, 1.2)
	zr := stats.NewRNG(99)
	zipfPattern := func() int { return z.Rank(zr) - 1 }
	zr2 := stats.NewRNG(99)
	zipfPattern2 := func() int { return z.Rank(zr2) - 1 }
	directZ := nvm.SimulateWear(nvm.DirectMapper{N: lines}, endurance, lines*endurance, zipfPattern)
	sgZ := nvm.SimulateWear(nvm.NewStartGap(lines, 16), endurance, lines*endurance, zipfPattern2)

	wear := report.NewTable("E9b: PCM lifetime under wear (fraction of ideal)",
		"pattern", "no leveling", "start-gap (psi=16)")
	wear.AddRowf("single hot line",
		direct.LifetimeFraction(endurance, lines),
		sg.LifetimeFraction(endurance, lines+1))
	wear.AddRowf("zipf(1.2)",
		directZ.LifetimeFraction(endurance, lines),
		sgZ.LifetimeFraction(endurance, lines+1))
	res := Result{Table: tbl}
	res.Findings = []string{
		finding("collapsing the stack cuts persist-bound transaction latency %.0fx (paper: NVM disrupts the memory/storage dichotomy)", latGain),
		finding("idle power drops %.1fx without DRAM refresh (paper: greater power efficiency)", idleGain),
		finding("hot-line lifetime without leveling: %.1f%% of ideal; start-gap recovers %.0f%% (paper: must address device wear-out)",
			100*direct.LifetimeFraction(endurance, lines),
			100*sg.LifetimeFraction(endurance, lines+1)),
		"\n" + wear.String(),
	}
	return res
}
