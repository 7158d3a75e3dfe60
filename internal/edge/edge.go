// Package edge models the paper's "Putting It All Together — Eco-System
// Architecture" question (§2.1): how should computation split between a
// portable device and the cloud, adapting to the reliability and energy of
// the uplink? It provides a linear processing-pipeline model, exhaustive
// optimal split search under latency/energy objectives, and a dynamic
// controller compared against static splits across uplink states.
package edge

import (
	"math"
)

// Stage is one step of a processing pipeline (e.g. capture → features →
// classify → render).
type Stage struct {
	// Ops is the computational work.
	Ops float64
	// OutBytes is the size of the stage's output (input to the next
	// stage, or what must cross the uplink if the pipeline is cut here).
	OutBytes float64
}

// Device is the portable platform.
type Device struct {
	// OpsPerSec is device compute throughput.
	OpsPerSec float64
	// EnergyPerOp is device compute energy (J/op).
	EnergyPerOp float64
}

// Cloud is the remote side; device energy is not charged for cloud compute.
type Cloud struct {
	// OpsPerSec is effective cloud throughput for this app.
	OpsPerSec float64
}

// Uplink is the wireless link state.
type Uplink struct {
	// BytesPerSec is uplink throughput.
	BytesPerSec float64
	// RTTSeconds is the round-trip floor paid once when offloading.
	RTTSeconds float64
	// EnergyPerByte is radio energy charged to the device.
	EnergyPerByte float64
	// Up is false during outages (offloading impossible).
	Up bool
}

// Eval reports latency and device energy for cutting the pipeline after
// stage k (k stages run on device, len(stages)-k in the cloud; k may be 0
// or len(stages)). If the uplink is down, only the full-device split
// (k = len(stages)) is feasible; infeasible splits return +Inf metrics.
func Eval(stages []Stage, k int, d Device, c Cloud, u Uplink) (latency, deviceEnergy float64) {
	if k < 0 || k > len(stages) {
		panic("edge: split point out of range")
	}
	latency = 0.0
	deviceEnergy = 0.0
	for i := 0; i < k; i++ {
		latency += stages[i].Ops / d.OpsPerSec
		deviceEnergy += stages[i].Ops * d.EnergyPerOp
	}
	if k == len(stages) {
		return latency, deviceEnergy
	}
	// Remaining stages go to the cloud: pay the cut transfer.
	if !u.Up {
		return math.Inf(1), math.Inf(1)
	}
	var cutBytes float64
	if k == 0 {
		// Raw input of stage 0 approximated by its output size scaled up:
		// use the stage's own OutBytes if no explicit input; we model raw
		// input as the first stage's InBytes via convention below.
		cutBytes = rawInputBytes(stages)
	} else {
		cutBytes = stages[k-1].OutBytes
	}
	latency += u.RTTSeconds + cutBytes/u.BytesPerSec
	deviceEnergy += cutBytes * u.EnergyPerByte
	for i := k; i < len(stages); i++ {
		latency += stages[i].Ops / c.OpsPerSec
	}
	return latency, deviceEnergy
}

// rawInputBytes is the size of the unprocessed input when offloading
// everything (k=0): by convention it is the first stage's output inflated
// by its reduction factor, defaulting to 10x the first output.
func rawInputBytes(stages []Stage) float64 {
	if len(stages) == 0 {
		return 0
	}
	return 10 * stages[0].OutBytes
}

// Objective selects what BestSplit minimizes.
type Objective int

// The supported objectives.
const (
	// MinLatency minimizes end-to-end latency.
	MinLatency Objective = iota
	// MinEnergy minimizes device energy.
	MinEnergy
	// MinEnergyUnderLatency minimizes device energy subject to a latency
	// bound.
	MinEnergyUnderLatency
)

// BestSplit exhaustively searches split points. latencyBound applies only
// to MinEnergyUnderLatency; when no split meets the bound, the
// lowest-latency split is returned.
func BestSplit(stages []Stage, d Device, c Cloud, u Uplink, obj Objective, latencyBound float64) (k int, latency, energy float64) {
	bestK := -1
	bestLat, bestE := math.Inf(1), math.Inf(1)
	fallbackK, fallbackLat, fallbackE := -1, math.Inf(1), math.Inf(1)
	for cut := 0; cut <= len(stages); cut++ {
		lat, e := Eval(stages, cut, d, c, u)
		if lat < fallbackLat {
			fallbackK, fallbackLat, fallbackE = cut, lat, e
		}
		better := false
		switch obj {
		case MinLatency:
			better = lat < bestLat
		case MinEnergy:
			better = e < bestE || (e == bestE && lat < bestLat)
		case MinEnergyUnderLatency:
			if lat > latencyBound {
				continue
			}
			better = e < bestE || (e == bestE && lat < bestLat)
		}
		if better {
			bestK, bestLat, bestE = cut, lat, e
		}
	}
	if bestK < 0 {
		return fallbackK, fallbackLat, fallbackE
	}
	return bestK, bestLat, bestE
}

// UplinkStates returns a representative day of uplink conditions for the
// adaptation experiment: good WiFi, congested cellular, and an outage, with
// occupancy weights.
func UplinkStates() []struct {
	Name   string
	Link   Uplink
	Weight float64
} {
	return []struct {
		Name   string
		Link   Uplink
		Weight float64
	}{
		{"wifi", Uplink{BytesPerSec: 2e6, RTTSeconds: 0.02, EnergyPerByte: 1e-7, Up: true}, 0.5},
		{"cellular", Uplink{BytesPerSec: 2e5, RTTSeconds: 0.08, EnergyPerByte: 1e-6, Up: true}, 0.4},
		{"outage", Uplink{Up: false}, 0.1},
	}
}

// AdaptationGain compares a static split (chosen for the first state) to
// per-state re-optimization across the weighted states, returning
// (staticEnergy, adaptiveEnergy, staticLatency, adaptiveLatency) weighted
// means under MinEnergyUnderLatency with the given bound.
func AdaptationGain(stages []Stage, d Device, c Cloud, bound float64) (se, ae, sl, al float64) {
	states := UplinkStates()
	staticK, _, _ := BestSplit(stages, d, c, states[0].Link, MinEnergyUnderLatency, bound)
	for _, st := range states {
		lat, e := Eval(stages, staticK, d, c, st.Link)
		if math.IsInf(lat, 1) {
			// Static split infeasible (outage while split offloads):
			// device falls back to local-only at a latency penalty for
			// the re-dispatch.
			lat, e = Eval(stages, len(stages), d, c, st.Link)
			lat += bound // missed-deadline penalty
		}
		se += st.Weight * e
		sl += st.Weight * lat
		_, alat, aen := BestSplit(stages, d, c, st.Link, MinEnergyUnderLatency, bound)
		ae += st.Weight * aen
		al += st.Weight * alat
	}
	return se, ae, sl, al
}

// VisionPipeline returns the running example: a mobile augmented-reality
// pipeline (the "Google Glasses" workload of §2.1) — capture produces 200KB
// frames, feature extraction reduces to 20KB, classification to 200B, and
// rendering consumes the result.
func VisionPipeline() []Stage {
	return []Stage{
		{Ops: 2e6, OutBytes: 200e3}, // capture
		{Ops: 2e8, OutBytes: 20e3},  // features
		{Ops: 2e9, OutBytes: 200},   // classify
		{Ops: 5e7, OutBytes: 200},   // render
	}
}

// StandardDevice returns a smartphone-class device: 10 Gops/s at 100 pJ/op
// (the paper's ~10 giga-operations/watt).
func StandardDevice() Device {
	return Device{OpsPerSec: 1e10, EnergyPerOp: 1e-10}
}

// StandardCloud returns the cloud side: effectively 100x device throughput.
func StandardCloud() Cloud {
	return Cloud{OpsPerSec: 1e12}
}
