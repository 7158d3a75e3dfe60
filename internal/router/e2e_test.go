package router

// End-to-end acceptance for the multi-replica serving stack: a 3-replica
// in-process cluster must (a) execute each unique grid point of a
// 64-point sweep exactly once cluster-wide, (b) survive a replica killed
// mid-sweep with zero lost points via failover, and (c) serve
// previously-computed results as cache hits after a restart from tier-2
// snapshots, verified through the same Metrics the /stats endpoints
// expose.

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// e2eSpec is the 64-point grid: 8 f values x 8 bces values of E7.
func e2eSpec(t *testing.T) sweep.Spec {
	t.Helper()
	sp, err := sweep.ParseSpec("E7", []string{
		"f=0.9:0.97:0.01",
		"bces=16,32,64,128,256,512,1024,2048",
	})
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if got := len(sp.Grid()); got != 64 {
		t.Fatalf("grid has %d points, want 64", got)
	}
	return sp
}

// newRegistryCluster builds n registry-backed engines (optionally with
// tier-2 snapshot paths) behind a router.
func newRegistryCluster(t *testing.T, n int, snapDir string, cfg Config) (*Router, []*serve.Engine) {
	t.Helper()
	engines := make([]*serve.Engine, n)
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		c := serve.Config{Shards: 4, Workers: 2}
		if snapDir != "" {
			c.SnapshotPath = filepath.Join(snapDir, fmt.Sprintf("replica-%d.snap", i))
		}
		engines[i] = serve.NewEngine(c)
		backends[i] = NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i))
	}
	r, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, engines
}

func totalExecutions(engines []*serve.Engine) int64 {
	var n int64
	for _, e := range engines {
		n += e.Metrics().Executions
	}
	return n
}

func TestClusterSweepExecutesEachPointExactlyOnce(t *testing.T) {
	r, engines := newRegistryCluster(t, 3, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	sp := e2eSpec(t)

	sum, err := sweep.Run(context.Background(), r, sp, nil)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if sum.Points != 64 {
		t.Fatalf("swept %d points, want 64", sum.Points)
	}
	if got := totalExecutions(engines); got != 64 {
		t.Fatalf("cluster-wide executions = %d, want exactly 64 (one per unique grid point)", got)
	}
	for i, e := range engines {
		if e.Metrics().Executions == 0 {
			t.Fatalf("replica %d executed nothing — placement is not scattering", i)
		}
	}

	// Repeat sweep: every point is someone's tier-1 hit; no re-execution
	// anywhere in the cluster.
	sum2, err := sweep.Run(context.Background(), r, sp, nil)
	if err != nil {
		t.Fatalf("repeat sweep: %v", err)
	}
	if got := totalExecutions(engines); got != 64 {
		t.Fatalf("repeat sweep re-executed: cluster-wide executions = %d, want 64", got)
	}
	if sum2.CacheHits != 64 {
		t.Fatalf("repeat sweep cache hits = %d, want 64", sum2.CacheHits)
	}
}

func TestClusterSweepSurvivesReplicaKillMidSweep(t *testing.T) {
	r, faults, engines, _ := newTestCluster(t, 3, Config{FailThreshold: 2, ProbeAfter: time.Hour}, false)
	sp := e2eSpec(t)
	// Waves of 16, so the kill below lands between waves.
	sp.Parallelism = 8

	// Kill replica 1 after the 16th point lands. Its unexecuted keys must
	// fail over to ring successors; every grid point still completes.
	emitted := 0
	var points []sweep.Point
	sum, err := sweep.Run(context.Background(), r, sp, func(pt sweep.Point) error {
		emitted++
		points = append(points, pt)
		if emitted == 16 {
			faults[1].Kill()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("sweep with mid-sweep kill: %v", err)
	}
	if sum.Points != 64 || len(points) != 64 {
		t.Fatalf("lost points: summary %d, emitted %d, want 64", sum.Points, len(points))
	}
	seen := map[string]bool{}
	for _, pt := range points {
		if pt.Key == "" || seen[pt.Key] {
			t.Fatalf("point %d has empty or duplicate key %q", pt.Index, pt.Key)
		}
		seen[pt.Key] = true
	}
	// Exactly-once still holds cluster-wide: the dead replica's completed
	// work stays counted, failed-over points executed once elsewhere.
	if got := totalExecutions(engines); got != 64 {
		t.Fatalf("cluster-wide executions = %d, want 64 despite the kill", got)
	}
	if m := r.Metrics(); !m.Health[1].Ejected {
		t.Fatalf("killed replica should be ejected: %+v", m.Health)
	}
}

// A wedged replica must not stall an entire sweep: points owned by the
// hung backend cost at most the per-attempt timeout each (and only
// until ejection), then fail over; the sweep completes with every point
// served.
func TestWedgedReplicaCannotStallSweep(t *testing.T) {
	r, faults, engines, _ := newTestCluster(t, 3, Config{Timeout: 100 * time.Millisecond, FailThreshold: 2, ProbeAfter: time.Hour}, false)
	faults[2].Hang()
	defer faults[2].Release()
	sp := e2eSpec(t)

	t0 := time.Now()
	sum, err := sweep.Run(context.Background(), r, sp, nil)
	if err != nil {
		t.Fatalf("sweep with wedged replica: %v", err)
	}
	if sum.Points != 64 {
		t.Fatalf("swept %d points, want 64", sum.Points)
	}
	// The wedge costs at most FailThreshold timeouts before ejection
	// (plus in-flight stragglers); anywhere near 64 x timeout means the
	// hang leaked into every point.
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("wedged replica stalled the sweep for %v", el)
	}
	if !r.Metrics().Health[2].Ejected {
		t.Fatal("wedged replica should be ejected")
	}
	// Points the wedged replica owned were executed elsewhere; the two
	// live replicas did all the work (the wedged engine may still drain
	// abandoned attempts later, so only assert the live total covers the
	// grid).
	if got := engines[0].Metrics().Executions + engines[1].Metrics().Executions; got < 64-int64(engines[2].Metrics().Executions) {
		t.Fatalf("live replicas executed %d points, wedged %d — lost work", got, engines[2].Metrics().Executions)
	}
}

func TestClusterRestartServesFromTierTwoSnapshots(t *testing.T) {
	dir := t.TempDir()
	r, engines := newRegistryCluster(t, 3, dir, Config{})
	sp := e2eSpec(t)
	if _, err := sweep.Run(context.Background(), r, sp, nil); err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if got := totalExecutions(engines); got != 64 {
		t.Fatalf("cold executions = %d, want 64", got)
	}
	for i, e := range engines {
		if err := e.SaveSnapshot(); err != nil {
			t.Fatalf("replica %d snapshot: %v", i, err)
		}
		e.Close()
	}

	// "Restart": fresh engines on the same snapshot paths.
	r2, engines2 := newRegistryCluster(t, 3, dir, Config{})
	defer func() {
		for _, e := range engines2 {
			e.Close()
		}
	}()
	var loaded int64
	for i, e := range engines2 {
		m := e.Metrics()
		if !m.Snapshot.Enabled {
			t.Fatalf("replica %d: snapshot tier not enabled", i)
		}
		loaded += m.Snapshot.Loaded
	}
	if loaded < 64 {
		t.Fatalf("restarted cluster warm-loaded %d entries, want >= 64", loaded)
	}

	sum, err := sweep.Run(context.Background(), r2, sp, nil)
	if err != nil {
		t.Fatalf("post-restart sweep: %v", err)
	}
	if got := totalExecutions(engines2); got != 0 {
		t.Fatalf("post-restart sweep executed %d times, want 0 (all tier-2 warm hits)", got)
	}
	if sum.CacheHits != 64 {
		t.Fatalf("post-restart cache hits = %d, want 64", sum.CacheHits)
	}
	// The /stats counters agree: every request after restart was a hit.
	var hits, reqs int64
	for _, e := range engines2 {
		m := e.Metrics()
		hits += m.CacheHits
		reqs += m.Requests
	}
	if hits != 64 || reqs != 64 {
		t.Fatalf("/stats counters after restart: hits=%d requests=%d, want 64/64", hits, reqs)
	}
}
