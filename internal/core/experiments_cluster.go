package core

import (
	"context"
	"sort"

	"repro/internal/cluster"
	"repro/internal/qos"
	"repro/internal/report"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E3",
		Title: "Tail at scale: the 63% amplification and hedging",
		PaperClaim: "If 100 systems must jointly respond, 63% of requests incur the " +
			"99th-percentile delay of the individual systems (§2.1, citing Dean)",
		Params: []ParamSpec{
			{Name: "fanout", Kind: IntParam, Default: 100, Min: 1, Max: 2000,
				Doc: "leaves per fork-join request for the headline findings"},
			{Name: "trials", Kind: IntParam, Default: 20000, Min: 1000, Max: 200000,
				Doc: "Monte-Carlo trials per figure point (cut 5x past fanout 500)"},
			{Name: "hedge", Kind: FloatParam, Default: 0.95, Min: 0.5, Max: 0.999,
				Doc: "quantile after which a hedged duplicate request is issued"},
		},
		Run: runE3,
	})
	register(Experiment{
		ID:    "E15",
		Title: "QoS under colocation",
		PaperClaim: "Applications must express QoS targets and have hardware/OS/" +
			"virtualization ensure them via coordinated resource management (§2.4)",
		Run: runE15,
	})
}

func runE3(ctx context.Context, p Params) Result {
	fanout := p.Int("fanout")
	baseTrials := p.Int("trials")
	hedgeQ := p.Float("hedge")
	fig := report.NewFigure("E3: fraction of fork-join requests above leaf p99",
		"fanout", "fraction > leaf p99")
	closed := fig.AddSeries("closed form 1-0.99^n")
	mc := fig.AddSeries("monte carlo")
	hedgedP99 := fig.AddSeries("hedged p99 / plain p99")
	leaf := cluster.DefaultLeafLatency()
	var fracAt float64
	var hedgeRatioAt, extraLoad float64
	fanouts := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	if i := sort.SearchInts(fanouts, fanout); i == len(fanouts) || fanouts[i] != fanout {
		fanouts = append(fanouts[:i], append([]int{fanout}, fanouts[i:]...)...)
	}
	for _, n := range fanouts {
		cf := cluster.FractionAboveQuantile(n, 0.99)
		closed.Add(float64(n), cf)
		r := stats.NewRNG(uint64(2014 + n))
		trials := baseTrials
		if n >= 500 {
			trials = baseTrials / 5
		}
		plain := cluster.SimulateForkJoin(cluster.ForkJoinConfig{
			Fanout: n, Leaf: leaf, Trials: trials}, r)
		mc.Add(float64(n), plain.FracAboveLeafP99)
		rh := stats.NewRNG(uint64(7700 + n))
		hedged := cluster.SimulateForkJoin(cluster.ForkJoinConfig{
			Fanout: n, Leaf: leaf, Trials: trials,
			Policy: cluster.Hedged, HedgeQuantile: hedgeQ}, rh)
		hedgedP99.Add(float64(n), hedged.P99/plain.P99)
		if n == fanout {
			fracAt = plain.FracAboveLeafP99
			hedgeRatioAt = hedged.P99 / plain.P99
			extraLoad = hedged.ExtraLoad
		}
	}
	// Load-dependence from the queueing cluster.
	qLow := cluster.SimulateQueueing(cluster.QueueingConfig{
		Leaves: 20, RootRate: 100, LeafService: stats.Exponential{Rate: 1000},
		Requests: 4000, Seed: 31})
	qHigh := cluster.SimulateQueueing(cluster.QueueingConfig{
		Leaves: 20, RootRate: 700, LeafService: stats.Exponential{Rate: 1000},
		Requests: 4000, Seed: 31})
	res := Result{
		Figure: fig,
		Findings: []string{
			finding("measured fraction at fanout %d: %.1f%% (paper: 63%%; closed form %.1f%%)",
				fanout, fracAt*100, cluster.FractionAboveQuantile(fanout, 0.99)*100),
			finding("hedged requests cut join p99 to %.0f%% of plain for %.1f%% extra load (Dean's mitigation shape)",
				hedgeRatioAt*100, extraLoad*100),
			finding("queueing: raising leaf utilization %.0f%% -> %.0f%% inflates join p99 %.1fx (tails are load-dependent)",
				qLow.MeanLeafUtilization*100, qHigh.MeanLeafUtilization*100, qHigh.P99/qLow.P99),
		},
	}
	res.SetHeadline(fracAt * 100)
	return res
}

func runE15(ctx context.Context, _ Params) Result {
	base := qos.Config{
		LCRate:           100,
		LCService:        stats.Exponential{Rate: 1000},
		BatchOutstanding: 4,
		BatchService:     stats.Constant{V: 0.050},
		Duration:         300,
		Seed:             2014,
	}
	tbl := report.NewTable("E15: colocated latency-critical + batch on one resource",
		"policy", "lc p50 (ms)", "lc p99 (ms)", "batch throughput (/s)", "utilization")
	var shared, prio, bucket qos.Result
	for _, pol := range []qos.Policy{qos.SharedFIFO, qos.PriorityLC, qos.TokenBucket} {
		cfg := base
		cfg.Policy = pol
		cfg.BucketRate = 5
		cfg.BucketDepth = 1
		res := qos.Simulate(cfg)
		tbl.AddRowf(pol.String(), res.LCP50*1000, res.LCP99*1000,
			res.BatchThroughput, res.Utilization)
		switch pol {
		case qos.SharedFIFO:
			shared = res
		case qos.PriorityLC:
			prio = res
		case qos.TokenBucket:
			bucket = res
		}
	}
	rate, ctl := qos.SLOController(base, 0.020, 8)
	tbl.AddRowf("slo-controller (20ms)", ctl.LCP50*1000, ctl.LCP99*1000,
		ctl.BatchThroughput, ctl.Utilization)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("colocation inflates LC p99 %.0fx over priority isolation (paper: interactions must be managed)",
				shared.LCP99/prio.LCP99),
			finding("priority restores the tail and keeps %.0f%% of batch throughput (work-conserving QoS)",
				100*prio.BatchThroughput/shared.BatchThroughput),
			finding("token bucket trades batch throughput (%.1f/s vs %.1f/s) for tail control",
				bucket.BatchThroughput, shared.BatchThroughput),
			finding("SLO controller met 20ms p99 at bucket rate %.2f/s with p99=%.1fms",
				rate, ctl.LCP99*1000),
		},
	}
}
