package core

import (
	"context"

	"repro/internal/report"
	"repro/internal/tech"
)

func init() {
	register(Experiment{
		ID:    "E23",
		Title: "Expressing intent: deadline-aware DVFS",
		PaperClaim: "Current ISAs have no way of specifying when a program requires " +
			"energy efficiency or a desired QoS level; higher-level interfaces would " +
			"yield major efficiency gains (§2.4 'Better Interfaces for High-Level " +
			"Information')",
		Run: runE23,
	})
}

func runE23(ctx context.Context, _ Params) Result {
	d := tech.StandardDVFS()
	const ops = 1e9 // a 0.5s-at-nominal work chunk
	tbl := report.NewTable("E23: energy for a 1-Gop task vs expressed deadline (45nm mobile core)",
		"deadline (s)", "slack", "race-to-idle (J)", "paced DVFS (J)", "best", "intent gain")
	nominal := ops / d.FNominal
	var maxGain float64
	for _, slack := range []float64{1, 1.5, 2, 3, 4, 8} {
		deadline := nominal * slack
		race := d.RaceToIdle(ops, deadline)
		pace := d.Pace(ops, deadline)
		pol, _ := d.BestPolicy(ops, deadline)
		gain := d.IntentGain(ops, deadline)
		if gain > maxGain {
			maxGain = gain
		}
		tbl.AddRowf(deadline, slack, race, pace, pol, gain)
	}
	// The same hardware without the interface must assume the worst
	// (deadline unknown -> race): quantify what the interface is worth.
	leaky := d
	leaky.IdlePower = 0.0001
	leaky.ActiveLeakPower = 1.5
	polLeaky, _ := leaky.BestPolicy(ops, nominal*4)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("knowing the deadline is worth up to %.1fx energy on this core (paper: 'major efficiency gains' from conveying intent)", maxGain),
			finding("the right policy is platform-dependent: with near-perfect sleep and leaky logic the governor flips to '%s' — no fixed hardware heuristic covers both (why an *interface* is needed)", polLeaky),
			finding("at zero slack the policies coincide — the interface costs nothing when there is nothing to exploit"),
		},
	}
}
