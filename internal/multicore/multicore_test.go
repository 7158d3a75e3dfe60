package multicore

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

func TestSymmetricLimits(t *testing.T) {
	// f=1, r=1: perfect linear speedup.
	if s := SymmetricSpeedup(1, 256, 1); math.Abs(s-256) > 1e-9 {
		t.Fatalf("fully parallel symmetric = %v, want 256", s)
	}
	// f=0: speedup = perf(r) = sqrt(r).
	if s := SymmetricSpeedup(0, 256, 64); math.Abs(s-8) > 1e-9 {
		t.Fatalf("serial symmetric = %v, want 8", s)
	}
}

func TestHillMartyFigureShape(t *testing.T) {
	// The published result: for f=0.975, n=256, symmetric peaks at an
	// intermediate r (neither 1 nor n).
	bestR, bestS := OptimalSymmetricR(0.975, 256)
	if bestR <= 1 || bestR >= 256 {
		t.Fatalf("optimal r = %v, want interior optimum", bestR)
	}
	if bestS <= SymmetricSpeedup(0.975, 256, 1) {
		t.Fatal("interior optimum should beat r=1")
	}
	// Low f pushes optimum to big cores.
	lowR, _ := OptimalSymmetricR(0.5, 256)
	if lowR != 256 {
		t.Fatalf("f=0.5 optimal r = %v, want 256 (one big core)", lowR)
	}
}

func TestAsymmetricBeatsSymmetric(t *testing.T) {
	// Hill-Marty's headline: asymmetric >= symmetric at the same (f,n,r).
	for _, f := range []float64{0.5, 0.9, 0.975, 0.99} {
		for _, r := range []float64{4, 16, 64} {
			a := AsymmetricSpeedup(f, 256, r)
			s := SymmetricSpeedup(f, 256, r)
			if a < s-1e-9 {
				t.Fatalf("asymmetric %v < symmetric %v at f=%v r=%v", a, s, f, r)
			}
		}
	}
}

func TestDynamicBeatsAsymmetric(t *testing.T) {
	for _, f := range []float64{0.5, 0.9, 0.975, 0.99} {
		for _, r := range []float64{4, 16, 64} {
			dy := DynamicSpeedup(f, 256, r)
			a := AsymmetricSpeedup(f, 256, r)
			if dy < a-1e-9 {
				t.Fatalf("dynamic %v < asymmetric %v at f=%v r=%v", dy, a, f, r)
			}
		}
	}
}

func TestSpeedupPanics(t *testing.T) {
	cases := []func(){
		func() { SymmetricSpeedup(-0.1, 16, 1) },
		func() { SymmetricSpeedup(0.5, 16, 32) },
		func() { AsymmetricSpeedup(0.5, 0, 1) },
	}
	for i, f := range cases {
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

// Property: all three models are bounded by n and by the dynamic model.
func TestQuickModelOrdering(t *testing.T) {
	f := func(fRaw, rRaw uint8) bool {
		fr := float64(fRaw) / 255
		n := 256.0
		r := 1 + float64(int(rRaw)%255)
		if r > n {
			r = n
		}
		s := SymmetricSpeedup(fr, n, r)
		a := AsymmetricSpeedup(fr, n, r)
		dy := DynamicSpeedup(fr, n, r)
		return s <= a+1e-9 && a <= dy+1e-9 && dy <= n+1e-9 && s > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommModelDegradesPerfPerWatt(t *testing.T) {
	c := CommModel{OpEnergy: 1e-12, CommEnergyPerHop: 2e-13, CommFrac: 0.2}
	if c.PerfPerWatt(1024) >= c.PerfPerWatt(4) {
		t.Fatal("perf/W should degrade as communication grows with cores")
	}
	// Without communication, perf/W is flat.
	flat := CommModel{OpEnergy: 1e-12}
	if math.Abs(flat.PerfPerWatt(1024)-flat.PerfPerWatt(4)) > 1e-9*flat.PerfPerWatt(4) {
		t.Fatal("no-comm perf/W should be flat")
	}
}

func TestEffectiveSpeedupPowerCapped(t *testing.T) {
	c := CommModel{OpEnergy: 1e-12, CommEnergyPerHop: 1e-13, CommFrac: 0.3}
	// Unlimited power: near-linear for f=1.
	uncapped := c.EffectiveSpeedup(1.0, 1024, 1e12, 1)
	if uncapped < 1000 {
		t.Fatalf("uncapped speedup = %v", uncapped)
	}
	// 100W budget with 1W nominal cores: far fewer than 1024 usable.
	capped := c.EffectiveSpeedup(1.0, 1024, 100, 1)
	if capped >= uncapped/2 {
		t.Fatalf("power cap should bite: capped=%v uncapped=%v", capped, uncapped)
	}
	if capped < 1 {
		t.Fatal("speedup below 1")
	}
}

func TestRunnerExecutesAllTasksOnce(t *testing.T) {
	r := stats.NewRNG(3)
	d := workload.GenerateDAG(workload.DAGConfig{
		Layers: 6, Width: 10, EdgeProb: 0.3,
		Work: stats.Shifted{D: stats.Exponential{Rate: 1.0 / 400}, Offset: 100}}, r)
	var ran atomic.Uint64
	st := Runner{Workers: 4, Steal: true}.Run(d, func(w float64) {
		ran.Add(1)
		SpinWork(w)
	})
	if st.TasksRun != uint64(len(d.Tasks)) {
		t.Fatalf("tasks run = %d, want %d", st.TasksRun, len(d.Tasks))
	}
	if ran.Load() != uint64(len(d.Tasks)) {
		t.Fatalf("grain invocations = %d, want %d", ran.Load(), len(d.Tasks))
	}
}

func TestRunnerRespectsDependencies(t *testing.T) {
	r := stats.NewRNG(5)
	d := workload.GenerateDAG(workload.DAGConfig{
		Layers: 5, Width: 8, EdgeProb: 0.5,
		Work: stats.Constant{V: 200}}, r)
	var order atomic.Int64
	started := make([]int64, len(d.Tasks))
	finished := make([]int64, len(d.Tasks))
	var mu sync.Mutex
	idx := 0
	// Identify tasks by execution order: grain is called once per task but
	// we don't know which; instead reimplement via per-task closure by
	// wrapping work values with unique increments. Simpler: use a custom
	// DAG where work value encodes task ID.
	for i := range d.Tasks {
		d.Tasks[i].Work = float64(i)
	}
	Runner{Workers: 8, Steal: true}.Run(d, func(w float64) {
		id := int(w)
		mu.Lock()
		started[id] = order.Add(1)
		idx++
		mu.Unlock()
		SpinWork(500)
		mu.Lock()
		finished[id] = order.Add(1)
		mu.Unlock()
	})
	for i, task := range d.Tasks {
		for _, dep := range task.Deps {
			if finished[dep] == 0 || started[i] == 0 {
				t.Fatalf("task %d or dep %d never ran", i, dep)
			}
			if finished[dep] > started[i] {
				t.Fatalf("task %d started before dep %d finished", i, dep)
			}
		}
	}
}

func TestRunnerSingleWorkerDeterministicCount(t *testing.T) {
	r := stats.NewRNG(7)
	d := workload.Fork(100, stats.Constant{V: 50}, r)
	st := Runner{Workers: 1, Steal: false}.Run(d, SpinWork)
	if st.TasksRun != 100 {
		t.Fatalf("tasks = %d", st.TasksRun)
	}
}

func TestRunnerEmptyDAG(t *testing.T) {
	st := Runner{Workers: 4, Steal: true}.Run(&workload.DAG{}, SpinWork)
	if st.TasksRun != 0 {
		t.Fatal("empty DAG should run nothing")
	}
}

func TestRunnerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0 workers did not panic")
		}
	}()
	Runner{Workers: 0}.Run(&workload.DAG{}, SpinWork)
}

// The wall-clock 2-worker speedup is a bench figure, not a test: it reads
// 0.9–1.3 on shared 2-vCPU hosts. What is pinned here is the structure a
// speedup needs — every task runs once, both workers run tasks at the
// same time, and the work is split — none of which depends on timing.
func TestParallelSpeedupReal(t *testing.T) {
	d := workload.Fork(64, stats.Constant{V: 2e5}, stats.NewRNG(11))
	// The first grain blocks until a second one is in flight, which only
	// another worker can start: a runner that serialized tasks would hang.
	var inFlight atomic.Int32
	var once sync.Once
	met := make(chan struct{})
	together := func(float64) {
		if inFlight.Add(1) == 2 {
			once.Do(func() { close(met) })
		}
		<-met
		inFlight.Add(-1)
	}
	st := Runner{Workers: 2, Steal: true}.Run(d, together)
	if st.TasksRun != uint64(len(d.Tasks)) {
		t.Fatalf("stealing run executed %d tasks, want %d", st.TasksRun, len(d.Tasks))
	}
	for w, work := range st.WorkPerWorker {
		if work <= 0 {
			t.Fatalf("worker %d ran no work: %v", w, st.WorkPerWorker)
		}
	}
	// Imbalance is max/mean: 2 would mean one of the two workers did it all.
	if imb := imbalance(st); imb >= 2 {
		t.Fatalf("stealing imbalance = %v, want < 2", imb)
	}
	// Static placement deals the 64 equal tasks round-robin, so the split is
	// exact whatever the scheduling.
	st = Runner{Workers: 2, Steal: false}.Run(d, func(float64) {})
	if st.TasksRun != uint64(len(d.Tasks)) || imbalance(st) != 1 {
		t.Fatalf("static run: %d tasks, imbalance %v, want %d and exactly 1",
			st.TasksRun, imbalance(st), len(d.Tasks))
	}
}

func TestStealingBalancesSkewedWork(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skip("needs >= 4 CPUs")
	}
	r := stats.NewRNG(13)
	// Heavily skewed fork: a few huge tasks among many small ones.
	d := workload.Fork(64, stats.Bimodal{
		Base:   stats.Constant{V: 1e4},
		Heavy:  stats.Constant{V: 1e6},
		PHeavy: 0.1}, r)
	// Compare executed-work balance, which is robust to wall-clock noise
	// from concurrent test packages: demand-driven stealing must spread
	// the heavy tasks at least as evenly as blind round-robin placement.
	var stealImb, staticImb float64
	for i := 0; i < 3; i++ {
		stealImb += imbalance(Runner{Workers: 4, Steal: true}.Run(d, SpinWork))
		staticImb += imbalance(Runner{Workers: 4, Steal: false}.Run(d, SpinWork))
	}
	if stealImb > staticImb*1.1 {
		t.Fatalf("stealing imbalance (%v) should not exceed static (%v)",
			stealImb/3, staticImb/3)
	}
}

// imbalance is max/mean of a run's WorkPerWorker: 1 is perfect balance.
func imbalance(s RunStats) float64 {
	mean, maxW := 0.0, 0.0
	for _, w := range s.WorkPerWorker {
		mean += w
		maxW = math.Max(maxW, w)
	}
	return maxW * float64(len(s.WorkPerWorker)) / mean
}
