// Healthcare: the paper's Table A.1 "Data-centric Personalized Healthcare"
// scenario end to end — a wearable heart monitor decides what to compute
// on-sensor and what to ship to the cloud, under battery and harvested
// power, then the cloud side aggregates across a patient fleet.
//
//	go run ./examples/healthcare
package main

import (
	"fmt"

	"repro/internal/edge"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	fmt.Println("== Personalized healthcare: sensor -> cloud pipeline ==")

	// 1. On-sensor anomaly detection quality on a synthetic biometric
	//    stream with ground-truth anomalies.
	cfg := workload.DefaultStreamConfig()
	r := stats.NewRNG(7)
	stream := workload.GenerateStream(cfg, int(cfg.SampleHz)*600, r)
	det := workload.NewEWMADetector(0.05, 6)
	score := workload.ScoreDetector(det, stream)
	fmt.Printf("detector: recall %.0f%%, precision %.0f%%, flags %.2f%% of samples\n",
		100*score.Recall(), 100*score.Precision(), 100*score.FlaggedFraction())

	// 2. Energy: raw streaming vs on-sensor filtering.
	node := sensor.StandardNode()
	node.FlaggedFraction = score.FlaggedFraction()
	raw := node.DayBudget(sensor.RawTransmit)
	filt := node.DayBudget(sensor.OnSensorFilter)
	fmt.Printf("raw streaming:  %.1f J/day (battery %.1f days)\n", raw.TotalJ, raw.LifetimeDays)
	fmt.Printf("on-sensor filter: %.2f J/day (battery %.0f days) — %.0fx win\n",
		filt.TotalJ, filt.LifetimeDays, node.FilterWinFactor())

	// 3. Harvested operation: can the filtered node run on body heat +
	//    ambient light alone?
	h := sensor.Harvester{PeakPower: 5 * units.Milliwatt, Kind: "solar"}
	up := sensor.SimulateIntermittent(h, filt.MeanPower, 20, 1)
	fmt.Printf("harvested (5mW peak solar): %.0f%% uptime, %d outages/day\n",
		100*up.UptimeFrac, up.Outages)

	// 4. When an anomaly fires, the follow-up analysis pipeline splits
	//    between the phone and the cloud depending on connectivity.
	stages := []edge.Stage{
		{Ops: 1e6, OutBytes: 30e3}, // ecg-window
		{Ops: 5e7, OutBytes: 2e3},  // beat-features
		{Ops: 5e9, OutBytes: 100},  // arrhythmia-model
		{Ops: 1e5, OutBytes: 100},  // alert
	}
	d, c := edge.StandardDevice(), edge.StandardCloud()
	fmt.Println("follow-up analysis placement (energy-optimal under 500ms):")
	for _, st := range edge.UplinkStates() {
		k, lat, e := edge.BestSplit(stages, d, c, st.Link, edge.MinEnergyUnderLatency, 0.5)
		fmt.Printf("  %-9s stages on device: %d, latency %.0fms, device energy %.2fmJ\n",
			st.Name, k, lat*1000, e*1000)
	}
}
