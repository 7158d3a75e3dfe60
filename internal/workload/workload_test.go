package workload

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestKernelIntensity(t *testing.T) {
	// GEMM intensity grows with n (compute bound at scale).
	i128 := GEMM.Intensity(128)
	i1024 := GEMM.Intensity(1024)
	if i1024 <= i128 {
		t.Fatalf("GEMM intensity should grow: %v vs %v", i128, i1024)
	}
	// SpMV intensity is constant and low (memory bound).
	if SpMV.Intensity(1000) > 1 {
		t.Fatalf("SpMV intensity = %v, want < 1 op/byte", SpMV.Intensity(1000))
	}
}

func TestKernelOpsPositive(t *testing.T) {
	for _, k := range Kernels() {
		for _, n := range []int{1, 16, 1024} {
			if k.Ops(n) <= 0 {
				t.Errorf("%s Ops(%d) = %v", k.Name, n, k.Ops(n))
			}
			if k.Bytes(n) <= 0 {
				t.Errorf("%s Bytes(%d) = %v", k.Name, n, k.Bytes(n))
			}
		}
		if k.AccelFrac < 0 || k.AccelFrac > 1 {
			t.Errorf("%s AccelFrac = %v", k.Name, k.AccelFrac)
		}
	}
}

func TestGenerateStream(t *testing.T) {
	cfg := DefaultStreamConfig()
	cfg.AnomalyRate = 0.2 // ~12 events over the minute below
	r := stats.NewRNG(7)
	ss := GenerateStream(cfg, 250*60, r) // one minute
	if len(ss) != 250*60 {
		t.Fatal("wrong sample count")
	}
	frac := anomalyFraction(ss)
	// Expected: ~0.2 events/s * 50 samples / 250 Hz = ~4% of samples,
	// allow generous MC slack.
	if frac <= 0 || frac > 0.15 {
		t.Fatalf("anomaly fraction = %v", frac)
	}
}

func TestStreamDeterminism(t *testing.T) {
	cfg := DefaultStreamConfig()
	a := GenerateStream(cfg, 1000, stats.NewRNG(3))
	b := GenerateStream(cfg, 1000, stats.NewRNG(3))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("stream not deterministic")
		}
	}
}

func TestEWMADetectorCatchesAnomalies(t *testing.T) {
	cfg := DefaultStreamConfig()
	cfg.AnomalyRate = 0.1
	r := stats.NewRNG(11)
	ss := GenerateStream(cfg, 250*120, r)
	det := NewEWMADetector(0.05, 6)
	sc := ScoreDetector(det, ss)
	if sc.Recall() < 0.5 {
		t.Fatalf("detector recall = %v, want >= 0.5", sc.Recall())
	}
	// Should flag far fewer samples than it passes.
	if sc.FlaggedFraction() > 0.2 {
		t.Fatalf("flagged fraction = %v, detector too chatty", sc.FlaggedFraction())
	}
}

func TestDetectorScoreEdges(t *testing.T) {
	var sc DetectorScore
	if sc.Recall() != 0 || sc.Precision() != 0 || sc.FlaggedFraction() != 0 {
		t.Fatal("empty score should be zeros")
	}
	sc = DetectorScore{TruePositive: 3, FalseNegative: 1, FalsePositive: 2, TrueNegative: 4}
	if math.Abs(sc.Recall()-0.75) > 1e-12 {
		t.Fatalf("recall = %v", sc.Recall())
	}
	if math.Abs(sc.Precision()-0.6) > 1e-12 {
		t.Fatalf("precision = %v", sc.Precision())
	}
	if math.Abs(sc.FlaggedFraction()-0.5) > 1e-12 {
		t.Fatalf("flagged = %v", sc.FlaggedFraction())
	}
}

func TestGenerateDAGValid(t *testing.T) {
	r := stats.NewRNG(13)
	d := GenerateDAG(DAGConfig{Layers: 5, Width: 8, EdgeProb: 0.3,
		Work: stats.Exponential{Rate: 0.2}}, r)
	if len(d.Tasks) != 40 {
		t.Fatalf("task count = %d", len(d.Tasks))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every non-first-layer task has at least one dep.
	for _, task := range d.Tasks[8:] {
		if len(task.Deps) == 0 {
			t.Fatalf("task %d has no deps", task.ID)
		}
	}
}

func TestDAGPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad DAG config did not panic")
		}
	}()
	GenerateDAG(DAGConfig{Layers: 0, Width: 1, Work: stats.Constant{V: 1}}, stats.NewRNG(1))
}

func TestForkProperties(t *testing.T) {
	f := Fork(10, stats.Constant{V: 2}, stats.NewRNG(17))
	if len(f.Tasks) != 10 {
		t.Fatalf("fork tasks = %d", len(f.Tasks))
	}
	for _, task := range f.Tasks {
		if task.Work != 2 || len(task.Deps) != 0 {
			t.Fatalf("fork task %d: work %v deps %v, want 2 and none", task.ID, task.Work, task.Deps)
		}
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Property: generated DAGs always validate.
func TestQuickDAGInvariants(t *testing.T) {
	f := func(seed uint64, layersRaw, widthRaw uint8) bool {
		layers := int(layersRaw)%6 + 1
		width := int(widthRaw)%6 + 1
		r := stats.NewRNG(seed)
		d := GenerateDAG(DAGConfig{Layers: layers, Width: width, EdgeProb: 0.4,
			Work: stats.Exponential{Rate: 0.4}}, r)
		return d.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonTrace(t *testing.T) {
	r := stats.NewRNG(19)
	tr := PoissonTrace(50000, 100, r)
	if len(tr) != 50000 {
		t.Fatal("trace length wrong")
	}
	// Mean interarrival ~ 1/100.
	span := tr[len(tr)-1].Arrival - tr[0].Arrival
	rate := float64(len(tr)-1) / span
	if math.Abs(rate-100) > 5 {
		t.Fatalf("arrival rate = %v, want ~100", rate)
	}
	// Arrivals sorted.
	for i := 1; i < len(tr); i++ {
		if tr[i].Arrival < tr[i-1].Arrival {
			t.Fatal("arrivals not sorted")
		}
	}
}

func TestZipfTraceKeys(t *testing.T) {
	r := stats.NewRNG(23)
	tr := ZipfTrace(20000, 10, 100, 1.0, r)
	counts := map[int]int{}
	for _, rq := range tr {
		if rq.Key < 1 || rq.Key > 100 {
			t.Fatalf("key %d out of range", rq.Key)
		}
		counts[rq.Key]++
	}
	if counts[1] <= counts[50] {
		t.Fatalf("Zipf skew missing: rank1=%d rank50=%d", counts[1], counts[50])
	}
}

func TestAssignmentsMapping(t *testing.T) {
	r := stats.NewRNG(5)
	tr := ZipfTrace(5000, 100, 8, 1.1, r)
	idx := tr.Assignments(8)
	if len(idx) != len(tr) {
		t.Fatalf("got %d assignments for %d requests", len(idx), len(tr))
	}
	counts := make([]int, 8)
	for i, k := range idx {
		if k < 0 || k >= 8 {
			t.Fatalf("assignment %d out of range [0,8)", k)
		}
		// One-to-one with the trace's rank space when n == nKeys.
		if want := tr[i].Key - 1; k != want {
			t.Fatalf("request %d: rank %d mapped to %d, want %d", i, tr[i].Key, k, want)
		}
		counts[k]++
	}
	// Entry 0 carries rank 1's popularity: the plurality of requests.
	for i := 1; i < 8; i++ {
		if counts[0] <= counts[i] {
			t.Fatalf("entry 0 (%d) not hottest vs entry %d (%d)", counts[0], i, counts[i])
		}
	}
}

func TestAssignmentsFoldsWiderKeySpace(t *testing.T) {
	r := stats.NewRNG(6)
	tr := ZipfTrace(1000, 100, 40, 1.0, r)
	idx := tr.Assignments(8)
	for i, k := range idx {
		if want := (tr[i].Key - 1) % 8; k != want {
			t.Fatalf("request %d: got %d want %d", i, k, want)
		}
	}
	if got := tr.Assignments(0); got != nil {
		t.Fatalf("Assignments(0) = %v, want nil", got)
	}
}

func TestKernelString(t *testing.T) {
	ks := Kernels()
	if len(ks) == 0 || ks[0].String() != "kernel("+ks[0].Name+")" {
		t.Fatalf("Kernel.String drifted: %v", ks[0].String())
	}
}
