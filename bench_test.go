// Package repro's root benchmark harness regenerates every paper
// table/figure (one benchmark per experiment ID, matching DESIGN.md's
// per-experiment index) and runs the ablation and substrate benchmarks
// for the design choices DESIGN.md calls out. The serving stack is not
// timed here: the repository benchmark (bench/) measures it end to end
// and layer by layer, and the exact warm-path allocation pins are tests
// (TestServeWarmJSONHandlerAllocs below, the AllocsPerRun tests in
// internal/serve and internal/router). Run:
//
//	go test -run xxx -bench . -benchmem .
package repro

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/energy"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/multicore"
	"repro/internal/noc"
	"repro/internal/nvm"
	"repro/internal/qos"
	"repro/internal/reliability"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/tm"
	"repro/internal/workload"
)

// benchExperiment runs one registered experiment per iteration and keeps
// its output alive.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := core.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := e.RunWith(context.Background(), nil)
		if err != nil {
			b.Fatal(err)
		}
		sink += len(res.Render())
	}
	if sink == 0 {
		b.Fatal("experiment produced no output")
	}
}

// One benchmark per paper table/figure/claim (see DESIGN.md §2).

func BenchmarkE1TechnologyScaling(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2ArchitectureDividend(b *testing.B) { benchExperiment(b, "E2") }
func BenchmarkE3TailAtScale(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4Specialization(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5OperandFetchEnergy(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6EfficiencyLadder(b *testing.B)     { benchExperiment(b, "E6") }
func BenchmarkE7MulticoreScaling(b *testing.B)     { benchExperiment(b, "E7") }
func BenchmarkE8NearThreshold(b *testing.B)        { benchExperiment(b, "E8") }
func BenchmarkE9MemoryStorage(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10CommCrossover(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11SensorFilter(b *testing.B)        { benchExperiment(b, "E11") }
func BenchmarkE12Approximate(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13Reliability(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkE14InfoFlow(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15QoSColocation(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16OffloadSplit(b *testing.B)        { benchExperiment(b, "E16") }
func BenchmarkE17Availability(b *testing.B)        { benchExperiment(b, "E17") }
func BenchmarkE18BigDataPlacement(b *testing.B)    { benchExperiment(b, "E18") }
func BenchmarkE19TransactionalMemory(b *testing.B) { benchExperiment(b, "E19") }
func BenchmarkE20LocalityBlocking(b *testing.B)    { benchExperiment(b, "E20") }
func BenchmarkE21NoCContention(b *testing.B)       { benchExperiment(b, "E21") }
func BenchmarkE22CheckpointScale(b *testing.B)     { benchExperiment(b, "E22") }
func BenchmarkE23IntentDVFS(b *testing.B)          { benchExperiment(b, "E23") }
func BenchmarkT1Table1(b *testing.B)               { benchExperiment(b, "T1") }
func BenchmarkT2Table2(b *testing.B)               { benchExperiment(b, "T2") }

// --- Ablations (DESIGN.md §3) ---

// BenchmarkAblationClosedFormVsMonteCarlo contrasts the two E3 evaluation
// paths: order-statistics arithmetic vs simulation.
func BenchmarkAblationClosedFormVsMonteCarlo(b *testing.B) {
	b.Run("closed-form", func(b *testing.B) {
		s := 0.0
		for i := 0; i < b.N; i++ {
			s += cluster.FractionAboveQuantile(100, 0.99)
		}
		_ = s
	})
	b.Run("monte-carlo-5k", func(b *testing.B) {
		leaf := stats.Exponential{Rate: 100}
		for i := 0; i < b.N; i++ {
			r := stats.NewRNG(uint64(i))
			cluster.SimulateForkJoin(cluster.ForkJoinConfig{
				Fanout: 100, Leaf: leaf, Trials: 5000}, r)
		}
	})
}

// BenchmarkAblationHedging quantifies the simulation cost and benefit of
// hedged requests at fanout 100.
func BenchmarkAblationHedging(b *testing.B) {
	leaf := cluster.DefaultLeafLatency()
	for _, pol := range []cluster.HedgePolicy{cluster.NoHedge, cluster.Hedged} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			var p99 float64
			for i := 0; i < b.N; i++ {
				r := stats.NewRNG(uint64(i) + 7)
				res := cluster.SimulateForkJoin(cluster.ForkJoinConfig{
					Fanout: 100, Leaf: leaf, Trials: 5000,
					Policy: pol, HedgeQuantile: 0.95}, r)
				p99 = res.P99
			}
			b.ReportMetric(p99*1000, "p99-ms")
		})
	}
}

// BenchmarkAblationStealingVsStatic runs the real parallel runtime both
// ways on a skewed fork workload.
func BenchmarkAblationStealingVsStatic(b *testing.B) {
	r := stats.NewRNG(13)
	d := workload.Fork(256, stats.Bimodal{
		Base:   stats.Constant{V: 5e3},
		Heavy:  stats.Constant{V: 2e5},
		PHeavy: 0.1}, r)
	for _, steal := range []bool{true, false} {
		steal := steal
		name := "static"
		if steal {
			name = "stealing"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				multicore.Runner{Workers: 4, Steal: steal}.Run(d, multicore.SpinWork)
			}
		})
	}
}

// BenchmarkAblationWearLeveling compares PCM lifetime machinery overhead
// per mapped write.
func BenchmarkAblationWearLeveling(b *testing.B) {
	const n = 1024
	patterns := stats.NewZipf(n, 1.2)
	mk := map[string]func() nvm.Mapper{
		"none":        func() nvm.Mapper { return nvm.DirectMapper{N: n} },
		"start-gap":   func() nvm.Mapper { return nvm.NewStartGap(n, 16) },
		"random-swap": func() nvm.Mapper { return nvm.NewRandomSwap(n, 16, 3) },
	}
	for name, f := range mk {
		f := f
		b.Run(name, func(b *testing.B) {
			m := f()
			r := stats.NewRNG(11)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := patterns.Rank(r) - 1
				_ = m.Map(l)
				m.OnWrite(l)
			}
		})
	}
}

// BenchmarkAblationCachePolicy compares replacement policies on a Zipf
// stream.
func BenchmarkAblationCachePolicy(b *testing.B) {
	z := stats.NewZipf(1<<14, 0.9)
	for _, pol := range []mem.Policy{mem.LRU, mem.FIFO, mem.Random} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			c := mem.NewCache("bench", 64<<10, 64, 8, pol)
			r := stats.NewRNG(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(uint64(z.Rank(r))*64, false)
			}
			b.ReportMetric(c.MissRate()*100, "miss%")
		})
	}
}

// BenchmarkAblationQoSPolicies measures simulation throughput per policy.
func BenchmarkAblationQoSPolicies(b *testing.B) {
	for _, pol := range []qos.Policy{qos.SharedFIFO, qos.PriorityLC, qos.TokenBucket} {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				qos.Simulate(qos.Config{
					LCRate:           100,
					LCService:        stats.Exponential{Rate: 1000},
					BatchOutstanding: 4,
					BatchService:     stats.Constant{V: 0.050},
					Duration:         50,
					Policy:           pol,
					BucketRate:       5,
					BucketDepth:      1,
					Seed:             uint64(i),
				})
			}
		})
	}
}

// --- Serving-engine allocation pin (DESIGN.md §4) ---

// serveBenchID is a representative mid-weight experiment (E11's
// sensor-filter simulation).
const serveBenchID = "E11"

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestServeWarmJSONHandlerAllocs pins the warm GET /run/{id} JSON handler:
// a hit writes the per-request head into a pooled buffer and splices the
// tail memoized in the slab, so what allocates is the mux, the query and
// parameter maps and the context — no decode, Render or encoding/json. The
// bounds sit a little above the measured 5 and 20 (90 and 249 before the
// tail was memoized) and only ratchet down.
func TestServeWarmJSONHandlerAllocs(t *testing.T) {
	e := serve.NewEngine(serve.Config{Workers: 2})
	defer e.Close()
	h := e.Handler()
	for _, tc := range []struct {
		target string
		max    float64
	}{
		{"/v1/run/" + serveBenchID, 8},
		{"/v1/run/E7?param=bces=512&param=f=0.9", 24},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.target, nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req) // miss
		h.ServeHTTP(w, req) // first hit: renders and attaches the tail
		if got := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); got > tc.max {
			t.Errorf("warm JSON %s: %.1f allocs per request, want <= %v", tc.target, got, tc.max)
		}
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkDESEventThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := des.New()
		for j := 0; j < 1000; j++ {
			sim.Schedule(float64(j%97), func() {})
		}
		sim.Run()
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := mem.NewCache("bench", 32<<10, 64, 8, mem.LRU)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i%1024)*64, i%3 == 0)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := mem.StandardHierarchy(energy.Table45())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i%100000)*64, false)
	}
}

func BenchmarkSECDEDEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reliability.Encode(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkSECDEDDecodeWithError(b *testing.B) {
	cw := reliability.Encode(0xdeadbeefcafebabe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cw
		c.FlipBit(i % 72)
		reliability.Decode(c)
	}
}

func BenchmarkVMExecution(b *testing.B) {
	prog := []isa.Instr{
		{Op: isa.Li, Rd: 1, Imm: 0},
		{Op: isa.Li, Rd: 2, Imm: 10000},
		{Op: isa.Li, Rd: 3, Imm: 1},
		{Op: isa.Add, Rd: 1, Rs1: 1, Rs2: 3},
		{Op: isa.Blt, Rs1: 1, Rs2: 2, Imm: 3},
		{Op: isa.Halt},
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := isa.New(prog, 4)
			if err := m.Run(1 << 20); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ift", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := isa.New(prog, 4)
			m.TrackTaint = true
			if err := m.Run(1 << 20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkRNG(b *testing.B) {
	r := stats.NewRNG(1)
	var s uint64
	for i := 0; i < b.N; i++ {
		s += r.Uint64()
	}
	_ = s
}

func BenchmarkZipfRank(b *testing.B) {
	z := stats.NewZipf(1<<16, 1.0)
	r := stats.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Rank(r)
	}
}

func BenchmarkSTMTransfer(b *testing.B) {
	a, c := tm.NewVar(1<<40), tm.NewVar(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tm.Transfer(a, c, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlitSim8x8(b *testing.B) {
	m := noc.NewMesh2D(8, 8)
	for i := 0; i < b.N; i++ {
		noc.FlitSim{
			Mesh:          m,
			InjectionRate: 0.2,
			WarmupCycles:  500,
			MeasureCycles: 2000,
			Seed:          uint64(i),
		}.Run()
	}
}

func BenchmarkWorkStealingRuntime(b *testing.B) {
	r := stats.NewRNG(3)
	d := workload.GenerateDAG(workload.DAGConfig{
		Layers: 8, Width: 32, EdgeProb: 0.2,
		Work: stats.Constant{V: 2000}}, r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multicore.Runner{Workers: 4, Steal: true}.Run(d, multicore.SpinWork)
	}
}
