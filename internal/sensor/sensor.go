// Package sensor models the smart-sensing rung of the paper's
// sensors-to-clouds agenda (§2.1): an energy-constrained node with MCU,
// radio, battery and (optionally) an energy harvester, processing a
// biometric stream either by transmitting raw samples or by filtering
// on-sensor — the paper's canonical example that "the energy required to
// communicate data often outweighs that of computation".
package sensor

import (
	"math"

	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// Radio is a low-power wireless model.
type Radio struct {
	// EnergyPerBit is transmit energy per payload bit.
	EnergyPerBit units.Energy
	// PacketOverheadBits is per-packet framing overhead.
	PacketOverheadBits float64
	// PayloadBitsPerPacket is the maximum payload per packet.
	PayloadBitsPerPacket float64
}

// StandardRadio returns a BLE-class radio: 50 nJ/bit, 256-bit overhead,
// 1024-bit payloads.
func StandardRadio() Radio {
	return Radio{
		EnergyPerBit:         50 * units.Nanojoule,
		PacketOverheadBits:   256,
		PayloadBitsPerPacket: 1024,
	}
}

// TransmitEnergy returns the energy to send payloadBits including packet
// framing.
func (r Radio) TransmitEnergy(payloadBits float64) units.Energy {
	if payloadBits <= 0 {
		return 0
	}
	packets := math.Ceil(payloadBits / r.PayloadBitsPerPacket)
	total := payloadBits + packets*r.PacketOverheadBits
	return r.EnergyPerBit * units.Energy(total)
}

// MCU is the node's processor model.
type MCU struct {
	// EnergyPerOp is active energy per operation.
	EnergyPerOp units.Energy
	// SleepPower is the node's sleep-mode floor.
	SleepPower units.Power
}

// StandardMCU returns a microcontroller-class core: 20 pJ/op, 2 µW sleep.
func StandardMCU() MCU {
	return MCU{
		EnergyPerOp: 20 * units.Picojoule,
		SleepPower:  2 * units.Microwatt,
	}
}

// Strategy selects the node's data-handling policy.
type Strategy int

// The modelled strategies.
const (
	// RawTransmit streams every sample to the uplink.
	RawTransmit Strategy = iota
	// OnSensorFilter runs the anomaly detector locally and transmits only
	// flagged samples.
	OnSensorFilter
)

func (s Strategy) String() string {
	if s == RawTransmit {
		return "raw-transmit"
	}
	return "on-sensor-filter"
}

// NodeConfig describes the sensing workload and hardware.
type NodeConfig struct {
	// SampleHz is the stream sampling rate.
	SampleHz float64
	// BitsPerSample is the encoded sample width.
	BitsPerSample float64
	// Radio and MCU are the hardware models.
	Radio Radio
	MCU   MCU
	// DetectorOpsPerSample is the on-sensor filter's compute cost.
	DetectorOpsPerSample float64
	// FlaggedFraction is the fraction of samples the filter transmits.
	FlaggedFraction float64
	// BatteryJoules is usable battery energy.
	BatteryJoules float64
}

// StandardNode returns a wearable heart-monitor-class configuration with a
// coin-cell battery (~2500 J usable).
func StandardNode() NodeConfig {
	return NodeConfig{
		SampleHz:             250,
		BitsPerSample:        16,
		Radio:                StandardRadio(),
		MCU:                  StandardMCU(),
		DetectorOpsPerSample: 8,
		FlaggedFraction:      0.01,
		BatteryJoules:        2500,
	}
}

// Budget reports a day of operation under a strategy.
type Budget struct {
	// ComputeJ, RadioJ, SleepJ are per-day energy components.
	ComputeJ, RadioJ, SleepJ float64
	// TotalJ is their sum.
	TotalJ float64
	// LifetimeDays is battery life at this burn rate.
	LifetimeDays float64
	// MeanPower is the average draw.
	MeanPower units.Power
}

// DayBudget computes the daily energy budget for the strategy.
func (c NodeConfig) DayBudget(s Strategy) Budget {
	const day = 86400.0
	samples := c.SampleHz * day
	var b Budget
	switch s {
	case RawTransmit:
		b.RadioJ = float64(c.Radio.TransmitEnergy(samples * c.BitsPerSample))
		// Minimal packing compute: 1 op/sample.
		b.ComputeJ = samples * float64(c.MCU.EnergyPerOp)
	case OnSensorFilter:
		b.ComputeJ = samples * c.DetectorOpsPerSample * float64(c.MCU.EnergyPerOp)
		b.RadioJ = float64(c.Radio.TransmitEnergy(samples * c.FlaggedFraction * c.BitsPerSample))
	}
	b.SleepJ = float64(c.MCU.SleepPower) * day
	b.TotalJ = b.ComputeJ + b.RadioJ + b.SleepJ
	if b.TotalJ > 0 {
		b.LifetimeDays = c.BatteryJoules / b.TotalJ
	}
	b.MeanPower = units.Power(b.TotalJ / day)
	return b
}

// FilterWinFactor returns the energy advantage of on-sensor filtering over
// raw streaming for this node.
func (c NodeConfig) FilterWinFactor() float64 {
	raw := c.DayBudget(RawTransmit).TotalJ
	filt := c.DayBudget(OnSensorFilter).TotalJ
	if filt == 0 {
		return math.Inf(1)
	}
	return raw / filt
}

// Harvester produces power as a function of time-of-day (seconds in
// [0, 86400)).
type Harvester struct {
	// PeakPower is the maximum harvest (e.g. solar noon).
	PeakPower units.Power
	// Kind selects the trace shape: "solar" (half-sine daytime) or
	// "constant".
	Kind string
}

// Power returns harvested power at time-of-day t seconds.
func (h Harvester) Power(t float64) units.Power {
	switch h.Kind {
	case "constant":
		return h.PeakPower
	default: // solar: daylight 6h-18h, half-sine
		tod := math.Mod(t, 86400)
		if tod < 6*3600 || tod > 18*3600 {
			return 0
		}
		phase := (tod - 6*3600) / (12 * 3600) // 0..1 across daylight
		return h.PeakPower * units.Power(math.Sin(phase*math.Pi))
	}
}

// IntermittentResult summarizes energy-harvesting operation.
type IntermittentResult struct {
	// UptimeFrac is the fraction of time the node could operate.
	UptimeFrac float64
	// Outages counts separate dead intervals.
	Outages int
}

// SimulateIntermittent runs a day of harvested operation with a storage
// capacitor: the node runs whenever stored energy covers demandPower for
// the next step, else it sleeps until recharged above a restart threshold
// (10% of capacity). dtSeconds is the simulation step.
func SimulateIntermittent(h Harvester, demandPower units.Power, capJoules float64, dtSeconds float64) IntermittentResult {
	if dtSeconds <= 0 || capJoules <= 0 {
		panic("sensor: need positive step and capacitor")
	}
	stored := capJoules / 2
	up := 0.0
	outages := 0
	wasUp := true
	restartAt := capJoules * 0.1
	var res IntermittentResult
	operating := true
	for t := 0.0; t < 86400; t += dtSeconds {
		in := float64(h.Power(t)) * dtSeconds
		stored = math.Min(capJoules, stored+in)
		need := float64(demandPower) * dtSeconds
		if operating {
			if stored >= need {
				stored -= need
				up += dtSeconds
			} else {
				operating = false
				if wasUp {
					outages++
				}
				wasUp = false
			}
		} else if stored >= restartAt {
			operating = true
			wasUp = true
		}
	}
	res.UptimeFrac = up / 86400
	res.Outages = outages
	return res
}

// ScoreOnNode runs the real EWMA detector over a generated stream with the
// node's sampling config and returns the detector score plus the realized
// flagged fraction (which feeds FlaggedFraction for honest energy
// accounting).
func ScoreOnNode(cfg workload.StreamConfig, seconds int, seed uint64) workload.DetectorScore {
	r := stats.NewRNG(seed)
	ss := workload.GenerateStream(cfg, int(cfg.SampleHz)*seconds, r)
	det := workload.NewEWMADetector(0.05, 6)
	return workload.ScoreDetector(det, ss)
}
