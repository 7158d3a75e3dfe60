package core

import (
	"context"

	"repro/internal/approx"
	"repro/internal/edge"
	"repro/internal/energy"
	"repro/internal/report"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "On-sensor filtering vs raw transmission",
		PaperClaim: "Filtering and processing data where it is generated is central " +
			"because the energy to communicate often outweighs that of computation (§2.1)",
		Run: runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Approximate computing on sensor data",
		PaperClaim: "Sensor data is inherently approximate, opening approximate " +
			"computing techniques with significant energy savings (§2.1)",
		Run: runE12,
	})
	register(Experiment{
		ID:    "E16",
		Title: "Device/cloud computation splitting",
		PaperClaim: "Programs must divide effort between the portable platform and " +
			"the cloud while responding dynamically to uplink changes (§2.1)",
		Run: runE16,
	})
	register(Experiment{
		ID:    "E18",
		Title: "Big-data placement: process where generated vs centralize",
		PaperClaim: "Hybrid architectures that reduce data transfer while conserving " +
			"energy; many streams are too fast to ship and store (Table A.2)",
		Run: runE18,
	})
}

func runE11(ctx context.Context, _ Params) Result {
	node := sensor.StandardNode()
	// Calibrate the flagged fraction from the real detector. This scoring
	// pass over the generated sample stream is E11's long loop, so check
	// for cancellation at the stage boundaries around it — a disconnected
	// caller's run stops here instead of simulating a full day's budget
	// nobody will read.
	if ctx.Err() != nil {
		return Result{}
	}
	cfg := workload.DefaultStreamConfig()
	cfg.AnomalyRate = 0.02
	score := sensor.ScoreOnNode(cfg, 600, 2014)
	node.FlaggedFraction = score.FlaggedFraction()
	if ctx.Err() != nil {
		return Result{}
	}

	raw := node.DayBudget(sensor.RawTransmit)
	filt := node.DayBudget(sensor.OnSensorFilter)
	tbl := report.NewTable("E11: wearable heart monitor daily energy budget",
		"strategy", "compute (J)", "radio (J)", "sleep (J)", "total (J)", "battery life (days)")
	tbl.AddRowf(sensor.RawTransmit.String(), raw.ComputeJ, raw.RadioJ, raw.SleepJ,
		raw.TotalJ, raw.LifetimeDays)
	tbl.AddRowf(sensor.OnSensorFilter.String(), filt.ComputeJ, filt.RadioJ, filt.SleepJ,
		filt.TotalJ, filt.LifetimeDays)

	// A 1mW-peak harvester with a 2J storage cap: enough for the filtered
	// node around the clock, not for raw streaming through the night.
	h := sensor.Harvester{PeakPower: 1 * units.Milliwatt, Kind: "solar"}
	rawUp := sensor.SimulateIntermittent(h, raw.MeanPower, 2, 1)
	filtUp := sensor.SimulateIntermittent(h, filt.MeanPower, 2, 1)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("on-sensor filtering wins %.0fx on daily energy (paper: communication energy outweighs computation)",
				node.FilterWinFactor()),
			finding("radio is %.0f%% of the raw-streaming budget", 100*raw.RadioJ/raw.TotalJ),
			finding("detector quality preserved: recall %.0f%%, flagged %.2f%% of samples",
				100*score.Recall(), 100*score.FlaggedFraction()),
			finding("on a 1mW-peak solar harvester with a 2J cap: filtered node runs %.0f%% of the day vs %.0f%% raw (intermittent-power opportunity)",
				100*filtUp.UptimeFrac, 100*rawUp.UptimeFrac),
		},
	}
}

func runE12(ctx context.Context, _ Params) Result {
	cfg := workload.DefaultStreamConfig()
	cfg.AnomalyRate = 0.1
	r := stats.NewRNG(31)
	ss := workload.GenerateStream(cfg, 250*300, r)
	exact := workload.ScoreDetector(workload.NewEWMADetector(0.05, 6), ss)

	tbl := report.NewTable("E12: anomaly detection vs arithmetic precision",
		"mantissa bits", "mult energy (rel)", "recall", "precision")
	var pts []approx.ParetoPoint
	var recall8 float64
	for _, bits := range []int{52, 24, 16, 12, 8, 6, 4, 2, 1} {
		q := make([]workload.StreamSample, len(ss))
		copy(q, ss)
		for i := range q {
			q[i].V = approx.Quantize(q[i].V, bits)
		}
		sc := workload.ScoreDetector(workload.NewEWMADetector(0.05, 6), q)
		tbl.AddRowf(bits, approx.MultEnergyRel(bits), sc.Recall(), sc.Precision())
		pts = append(pts, approx.ParetoPoint{
			EnergyRel: approx.MultEnergyRel(bits),
			Error:     1 - sc.Recall(),
			Label:     report.FormatFloat(float64(bits)) + "b",
		})
		if bits == 8 {
			recall8 = sc.Recall()
		}
	}
	front := approx.ParetoFrontier(pts)
	labels := ""
	for i, p := range front {
		if i > 0 {
			labels += ", "
		}
		labels += p.Label
	}
	// Drowsy memory point: a deep refresh reduction with visible flips.
	dr := approx.DrowsyPoint(0.35)
	noisy := dr.Store(streamValues(ss), stats.NewRNG(7))
	rmse := approx.RMSE(streamValues(ss), noisy)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("8-bit mantissa keeps recall at %.0f%% of exact (%.0f%% vs %.0f%%) for %.0fx less multiplier energy",
				100*recall8/exact.Recall(), 100*recall8, 100*exact.Recall(),
				1/approx.MultEnergyRel(8)),
			finding("energy/quality Pareto frontier: %s", labels),
			finding("cutting refresh energy to 35%% on approximate storage costs RMSE %.2g on unit-scale data (flip prob %.1e/bit)",
				rmse, dr.FlipProbPerBit),
		},
	}
}

func streamValues(ss []workload.StreamSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.V
	}
	return out
}

func runE16(ctx context.Context, _ Params) Result {
	stages := edge.VisionPipeline()
	d, c := edge.StandardDevice(), edge.StandardCloud()
	tbl := report.NewTable("E16: AR vision pipeline split across device and cloud",
		"uplink", "best split (stages on device)", "latency (ms)", "device energy (mJ)")
	for _, st := range edge.UplinkStates() {
		k, lat, e := edge.BestSplit(stages, d, c, st.Link, edge.MinEnergyUnderLatency, 0.5)
		tbl.AddRowf(st.Name, k, lat*1000, e*1000)
	}
	se, ae, sl, al := edge.AdaptationGain(stages, d, c, 0.5)
	return Result{
		Table: tbl,
		Findings: []string{
			finding("optimal split moves with the uplink: offload early on wifi, on-device under outage (paper: respond dynamically to uplink changes)"),
			finding("adaptive splitting saves %.0f%% device energy and %.0f%% latency vs the best static split (%.2f->%.2f mJ, %.0f->%.0f ms)",
				100*(1-ae/se), 100*(1-al/sl), se*1000, ae*1000, sl*1000, al*1000),
		},
	}
}

func runE18(ctx context.Context, _ Params) Result {
	// A fleet of sensors: ship raw samples to the datacenter vs filter at
	// the source vs hybrid (filter + daily summaries). Costs charge sensor
	// radio, network transport, and datacenter ingest compute.
	tblE := energy.Table45()
	node := sensor.StandardNode()
	fig := report.NewFigure("E18: fleet energy/day vs per-sensor sample rate (1000 sensors)",
		"samples/s", "fleet energy (J/day)")
	centralize := fig.AddSeries("centralize (raw to cloud)")
	atSource := fig.AddSeries("process at sensor")
	var cross float64
	const day = 86400.0
	const fleet = 1000.0
	for _, rate := range []float64{1, 10, 50, 100, 250, 500, 1000} {
		n := node
		n.SampleHz = rate
		raw := n.DayBudget(sensor.RawTransmit).TotalJ
		// Datacenter side: network transport + 100 ops/sample ingest.
		bits := rate * day * n.BitsPerSample
		dc := bits*float64(tblE.NetworkPerBit) +
			rate*day*100*float64(tblE.GPInstruction(tblE.IntOp))
		central := (raw + dc) * fleet
		local := n.DayBudget(sensor.OnSensorFilter).TotalJ * fleet
		// Filtered traffic still reaches the cloud (1% of samples).
		local += bits * 0.01 * float64(tblE.NetworkPerBit) * fleet
		centralize.Add(rate, central)
		atSource.Add(rate, local)
		if cross == 0 && central > 2*local {
			cross = rate
		}
	}
	return Result{
		Figure: fig,
		Findings: []string{
			finding("processing at the source wins at every rate and the gap widens with rate (paper: hybrid architectures that reduce data transfer)"),
			finding("centralizing costs >2x from %.0f samples/s per sensor upward", cross),
		},
	}
}
