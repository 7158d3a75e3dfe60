package sensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/workload"
)

func TestRadioPacketization(t *testing.T) {
	r := StandardRadio()
	// 1024 payload bits = 1 packet: 1024+256 bits.
	e1 := r.TransmitEnergy(1024)
	want := float64(r.EnergyPerBit) * (1024 + 256)
	if math.Abs(float64(e1)-want) > 1e-15 {
		t.Fatalf("1-packet energy = %v, want %v", e1, want)
	}
	// 1025 bits = 2 packets of overhead.
	e2 := r.TransmitEnergy(1025)
	want2 := float64(r.EnergyPerBit) * (1025 + 2*256)
	if math.Abs(float64(e2)-want2) > 1e-15 {
		t.Fatalf("2-packet energy = %v, want %v", e2, want2)
	}
	if r.TransmitEnergy(0) != 0 {
		t.Fatal("zero payload should be free")
	}
}

func TestCommunicationDominatesComputation(t *testing.T) {
	c := StandardNode()
	// Energy to transmit one sample vs the ops to filter it: the paper's
	// core smart-sensing claim, radio/compute >> 1.
	radioPerSample := float64(c.Radio.EnergyPerBit) * c.BitsPerSample
	computePerSample := c.DetectorOpsPerSample * float64(c.MCU.EnergyPerOp)
	ratio := radioPerSample / computePerSample
	if ratio < 100 {
		t.Fatalf("radio/compute per sample = %v, want >= 100", ratio)
	}
}

func TestFilterWins(t *testing.T) {
	c := StandardNode()
	raw := c.DayBudget(RawTransmit)
	filt := c.DayBudget(OnSensorFilter)
	if filt.TotalJ >= raw.TotalJ {
		t.Fatal("filtering should save energy")
	}
	win := c.FilterWinFactor()
	if win < 10 {
		t.Fatalf("filter win = %vx, want >= 10x", win)
	}
	// Radio dominates the raw budget.
	if raw.RadioJ < 0.9*raw.TotalJ {
		t.Fatalf("radio share of raw budget = %v, want dominant", raw.RadioJ/raw.TotalJ)
	}
	// Lifetime: filtered node should last weeks, raw node days.
	if filt.LifetimeDays < 5*raw.LifetimeDays {
		t.Fatalf("lifetime gain = %v, want >= 5x", filt.LifetimeDays/raw.LifetimeDays)
	}
}

func TestBudgetComponentsSum(t *testing.T) {
	c := StandardNode()
	for _, s := range []Strategy{RawTransmit, OnSensorFilter} {
		b := c.DayBudget(s)
		if math.Abs(b.TotalJ-(b.ComputeJ+b.RadioJ+b.SleepJ)) > 1e-9 {
			t.Fatalf("%v: components do not sum", s)
		}
		if b.MeanPower <= 0 {
			t.Fatalf("%v: non-positive mean power", s)
		}
	}
}

// Property: filtering wins whenever the flagged fraction is below ~1/ops
// ratio; specifically it never loses for flagged fractions <= 10%.
func TestQuickFilterWinsAtLowFlagRates(t *testing.T) {
	f := func(fracRaw uint8) bool {
		c := StandardNode()
		c.FlaggedFraction = float64(fracRaw) / 255 * 0.10
		return c.FilterWinFactor() > 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSolarHarvesterShape(t *testing.T) {
	h := Harvester{PeakPower: 10 * units.Milliwatt, Kind: "solar"}
	if h.Power(0) != 0 {
		t.Fatal("midnight should harvest nothing")
	}
	noon := h.Power(12 * 3600)
	if math.Abs(float64(noon)-0.01) > 1e-9 {
		t.Fatalf("noon harvest = %v, want peak", noon)
	}
	if h.Power(9*3600) <= 0 || h.Power(9*3600) >= noon {
		t.Fatal("morning harvest should be between 0 and peak")
	}
	c := Harvester{PeakPower: 5 * units.Milliwatt, Kind: "constant"}
	if c.Power(0) != c.Power(40000) {
		t.Fatal("constant harvester should not vary")
	}
}

func TestIntermittentOperation(t *testing.T) {
	h := Harvester{PeakPower: 10 * units.Milliwatt, Kind: "solar"}
	// Demand below mean harvest (~3.2mW daylight mean over day): mostly up.
	light := SimulateIntermittent(h, 1*units.Milliwatt, 50, 1)
	// Demand far above harvest: mostly down.
	heavy := SimulateIntermittent(h, 100*units.Milliwatt, 50, 1)
	if light.UptimeFrac <= heavy.UptimeFrac {
		t.Fatal("lighter demand should yield more uptime")
	}
	if light.UptimeFrac < 0.8 {
		t.Fatalf("light-demand uptime = %v, want >= 0.8", light.UptimeFrac)
	}
	if heavy.UptimeFrac > 0.5 {
		t.Fatalf("heavy-demand uptime = %v, want < 0.5", heavy.UptimeFrac)
	}
	if heavy.Outages == 0 {
		t.Fatal("heavy demand should cause outages")
	}
}

func TestIntermittentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad step did not panic")
		}
	}()
	SimulateIntermittent(Harvester{}, 1, 1, 0)
}

func TestScoreOnNodeEndToEnd(t *testing.T) {
	cfg := workload.DefaultStreamConfig()
	cfg.AnomalyRate = 0.1
	sc := ScoreOnNode(cfg, 120, 77)
	if sc.Recall() < 0.5 {
		t.Fatalf("on-node recall = %v", sc.Recall())
	}
	// The realized flagged fraction must be low enough that filtering
	// actually pays (consistency between detector and energy model).
	if sc.FlaggedFraction() > 0.2 {
		t.Fatalf("flagged fraction = %v too high", sc.FlaggedFraction())
	}
}
