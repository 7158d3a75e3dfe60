package nvm

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestDeviceLibraryShape(t *testing.T) {
	// PCM writes are asymmetric; DRAM's are not.
	if a := float64(PCM.WriteLatency) / float64(PCM.ReadLatency); a < 2 {
		t.Fatalf("PCM asymmetry = %v, want >= 2", a)
	}
	if DRAM.WriteLatency != DRAM.ReadLatency {
		t.Fatalf("DRAM asymmetry = %v", float64(DRAM.WriteLatency)/float64(DRAM.ReadLatency))
	}
	// NVM idle power is far below DRAM refresh.
	if PCM.IdlePowerPerGB >= DRAM.IdlePowerPerGB/10 {
		t.Fatal("PCM idle power should be at least 10x below DRAM")
	}
	// Density: NVM denser than DRAM.
	if PCM.DensityRel <= DRAM.DensityRel {
		t.Fatal("PCM should be denser than DRAM")
	}
	// Endurance ordering: flash << PCM.
	if Flash.EnduranceWrites >= PCM.EnduranceWrites {
		t.Fatal("endurance ordering wrong")
	}
	// Disk is orders of magnitude slower than any memory device.
	if float64(Disk.ReadLatency)/float64(PCM.ReadLatency) < 1e3 {
		t.Fatal("disk should be >= 1000x slower than PCM")
	}
}

func TestDirectMapperIdentity(t *testing.T) {
	m := DirectMapper{N: 8}
	for i := 0; i < 8; i++ {
		if m.Map(i) != i {
			t.Fatal("direct mapper must be identity")
		}
	}
	if m.OnWrite(3) != nil {
		t.Fatal("direct mapper must not move")
	}
	if m.Slots() != 8 {
		t.Fatal("slots wrong")
	}
}

func TestStartGapMappingStaysBijective(t *testing.T) {
	sg := NewStartGap(16, 1) // move gap every write
	for w := 0; w < 200; w++ {
		sg.OnWrite(w % 16)
		seen := make(map[int]bool)
		for l := 0; l < 16; l++ {
			p := sg.Map(l)
			if p < 0 || p >= sg.Slots() {
				t.Fatalf("slot %d out of range", p)
			}
			if seen[p] {
				t.Fatalf("write %d: two lines share slot %d", w, p)
			}
			seen[p] = true
		}
	}
}

// Property: start-gap stays a bijection under arbitrary write streams and
// psi values.
func TestQuickStartGapBijective(t *testing.T) {
	f := func(seed uint64, psiRaw uint8) bool {
		psi := int(psiRaw)%8 + 1
		sg := NewStartGap(12, psi)
		r := stats.NewRNG(seed)
		for w := 0; w < 300; w++ {
			sg.OnWrite(r.Intn(12))
			seen := make(map[int]bool)
			for l := 0; l < 12; l++ {
				p := sg.Map(l)
				if p < 0 || p >= sg.Slots() || seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSwapBijective(t *testing.T) {
	rs := NewRandomSwap(16, 2, 42)
	for w := 0; w < 500; w++ {
		rs.OnWrite(w % 16)
		seen := make(map[int]bool)
		for l := 0; l < 16; l++ {
			p := rs.Map(l)
			if p < 0 || p >= rs.Slots() || seen[p] {
				t.Fatalf("write %d: mapping not bijective", w)
			}
			seen[p] = true
		}
	}
}

func TestLevelerPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewStartGap(0, 1) },
		func() { NewStartGap(4, 0) },
		func() { NewRandomSwap(0, 1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestWearHotLineKillsDirectMapping(t *testing.T) {
	const n = 64
	const endurance = 1000
	hot := func() int { return 7 } // single hot line
	direct := SimulateWear(DirectMapper{N: n}, endurance, n*endurance, hot)
	if !direct.Failed {
		t.Fatal("direct mapping should fail under a hot line")
	}
	// Fails after ~endurance writes: tiny fraction of ideal lifetime.
	if f := direct.LifetimeFraction(endurance, n); f > 0.05 {
		t.Fatalf("direct lifetime fraction = %v, want < 0.05", f)
	}
	// Start-gap spreads the hot line: lifetime improves by >10x.
	sg := SimulateWear(NewStartGap(n, 8), endurance, n*endurance, hot)
	if sg.WritesUntilFailure < 10*direct.WritesUntilFailure {
		t.Fatalf("start-gap %d vs direct %d: want >= 10x",
			sg.WritesUntilFailure, direct.WritesUntilFailure)
	}
}

func TestWearUniformPatternSurvives(t *testing.T) {
	const n = 32
	const endurance = 100
	r := stats.NewRNG(9)
	uniform := func() int { return r.Intn(n) }
	// Demand half the ideal lifetime: should survive even unleveled.
	res := SimulateWear(DirectMapper{N: n}, endurance, n*endurance/2, uniform)
	if res.Failed {
		t.Fatal("uniform writes at half ideal lifetime should not fail")
	}
	if res.MeanWear <= 0 || res.MaxWear < res.MeanWear {
		t.Fatal("wear stats inconsistent")
	}
}

func TestWearMoveOverheadCounted(t *testing.T) {
	sg := NewStartGap(16, 4)
	res := SimulateWear(sg, 1e12, 1000, func() int { return 3 })
	if res.MoveWrites != 1000/4 {
		t.Fatalf("move writes = %d, want 250", res.MoveWrites)
	}
}

func TestRandomSwapBeatsDirectUnderZipf(t *testing.T) {
	const n = 64
	const endurance = 2000
	z := stats.NewZipf(n, 1.2)
	mk := func(seed uint64) func() int {
		r := stats.NewRNG(seed)
		return func() int { return z.Rank(r) - 1 }
	}
	direct := SimulateWear(DirectMapper{N: n}, endurance, n*endurance, mk(1))
	swap := SimulateWear(NewRandomSwap(n, 16, 7), endurance, n*endurance, mk(1))
	if swap.WritesUntilFailure <= direct.WritesUntilFailure {
		t.Fatalf("random swap (%d) should outlive direct (%d) under Zipf",
			swap.WritesUntilFailure, direct.WritesUntilFailure)
	}
}

func TestStacksPersistLatencyOrdering(t *testing.T) {
	legacy := LegacyStack()
	flash := FlashStack()
	nvms := NVMStack()
	// Persist latency: disk > flash (seek vs program) >> pcm.
	if !(legacy.PersistLatency() > 5*flash.PersistLatency()) {
		t.Fatal("disk persist should exceed flash by several x")
	}
	if !(flash.PersistLatency() > 100*nvms.PersistLatency()) {
		t.Fatal("flash persist should dwarf PCM")
	}
}

func TestTxnLatencyCollapse(t *testing.T) {
	w := TxnWorkload{ReadsPerTxn: 20, PersistsPerTxn: 2}
	legacy := LegacyStack().TxnLatency(w)
	nvms := NVMStack().TxnLatency(w)
	ratio := float64(legacy) / float64(nvms)
	// The paper's "rethink": collapsing the stack wins orders of magnitude
	// for persistence-bound transactions.
	if ratio < 1000 {
		t.Fatalf("txn latency collapse = %vx, want >= 1000x", ratio)
	}
}

func TestTxnEnergy(t *testing.T) {
	w := TxnWorkload{ReadsPerTxn: 10, PersistsPerTxn: 1}
	legacy := LegacyStack().TxnEnergy(w)
	nvms := NVMStack().TxnEnergy(w)
	if float64(legacy)/float64(nvms) < 100 {
		t.Fatalf("txn energy ratio = %v, want >= 100", float64(legacy)/float64(nvms))
	}
}

func TestIdlePowerFavorsNVM(t *testing.T) {
	// 64GB working set + 1TB persistent data.
	legacy := LegacyStack().IdlePower(64, 1000)
	nvms := NVMStack().IdlePower(64, 1000)
	if float64(nvms) >= float64(legacy) {
		t.Fatal("single-level NVM idle power should beat DRAM+disk")
	}
	hybrid := HybridStack().IdlePower(8, 1000)
	if float64(hybrid) >= float64(legacy) {
		t.Fatal("hybrid idle power should beat legacy")
	}
}

func TestLifetimeFractionEdge(t *testing.T) {
	var w WearResult
	if w.LifetimeFraction(0, 10) != 0 {
		t.Fatal("zero endurance should give 0 fraction")
	}
	w.WritesUntilFailure = 500
	if math.Abs(w.LifetimeFraction(100, 10)-0.5) > 1e-12 {
		t.Fatal("fraction arithmetic wrong")
	}
}
