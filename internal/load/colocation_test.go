package load

// The PR's acceptance experiment, as a test: under a colocation scenario
// (interactive stream + concurrent batch sweep-storm), the class-based
// scheduler keeps interactive p99 within 2x of the interactive-alone
// p99 while batch makes progress; forcing the SharedFIFO policy (the old
// single-FIFO pool) on the very same workload demonstrates the priority
// inversion the refactor removes.
//
// The engine runs an injected runner with a fixed 1ms service time per
// (cold, unique) request, so the measured latencies are queueing plus a
// known service time — the scheduling disciplines are compared on the
// same footing, independent of experiment compute.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/serve"
)

const colocService = time.Millisecond

// uniqueVariants builds n distinct cold keys under one class.
func uniqueVariants(prefix string, n int, class admit.Class) []Variant {
	out := make([]Variant, n)
	for i := range out {
		out[i] = Variant{ID: fmt.Sprintf("%s%05d", prefix, i), Class: class}
	}
	return out
}

// newColocEngine builds an engine whose runner takes exactly colocService
// per request (honoring cancellation), under the given policy.
func newColocEngine(t *testing.T, policy admit.Policy) *serve.Engine {
	t.Helper()
	e := serve.NewEngine(serve.Config{
		Shards:  8,
		Workers: 4,
		// Deep queues, as a live sweep's fan-out would produce: the FIFO
		// inversion needs the backlog the old pool accumulated.
		Queue:  64,
		Policy: policy,
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-time.After(colocService):
			}
			return core.Result{Findings: []string{"served " + id}}, nil
		},
	})
	t.Cleanup(e.Close)
	return e
}

// colocScenario builds the synthetic colocation shape: 2 interactive
// clients over unique cold keys — offered load below the 4-worker
// capacity, as latency-critical traffic usually is — optionally with a
// 64-client batch storm over its own unique cold keys soaking up the
// headroom. Closed-loop clients hold one request each, so 64 of them are
// what fills the 64-deep queue: under SharedFIFO an interactive request
// then waits behind ~16 service times, well clear of the 2x-alone bound
// even when the alone p99 is inflated by a busy host (32 clients gave
// ~12 ms against a ~10 ms bound there).
func colocScenario(withBatch bool) Scenario {
	sc := Scenario{
		Name: "coloc-accept", Mode: ClosedLoop, Skew: 0, Clients: 2, Seed: 11,
		Variants: uniqueVariants("i", 4096, admit.Interactive),
	}
	if withBatch {
		sc.Groups = []Group{{
			Variants: uniqueVariants("b", 20000, admit.Batch),
			Clients:  64,
		}}
	}
	return sc
}

func runColoc(t *testing.T, policy admit.Policy, withBatch bool) Report {
	t.Helper()
	eng := newColocEngine(t, policy)
	rep, err := Run(engineTarget(eng), colocScenario(withBatch), Options{
		Duration: 700 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("load.Run: %v", err)
	}
	return rep
}

func TestColocationSchedulerHoldsInteractiveP99(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second timing experiment; skipped in -short")
	}

	alone := runColoc(t, admit.StrictPriority, false)
	coloc := runColoc(t, admit.StrictPriority, true)
	fifo := runColoc(t, admit.SharedFIFO, true)

	aloneInt, ok := alone.Metrics.PerClass[admit.Interactive.String()]
	if !ok {
		t.Fatalf("alone run has no interactive class metrics: %+v", alone.Metrics)
	}
	colocInt, ok := coloc.Metrics.PerClass[admit.Interactive.String()]
	if !ok {
		t.Fatalf("colocated run has no interactive class metrics: %+v", coloc.Metrics)
	}
	colocBatch, ok := coloc.Metrics.PerClass[admit.Batch.String()]
	if !ok {
		t.Fatal("colocated run has no batch class metrics")
	}
	fifoInt := fifo.Metrics.PerClass[admit.Interactive.String()]

	t.Logf("interactive p99: alone=%.2fms, colocated(strict-priority)=%.2fms, colocated(shared-fifo)=%.2fms",
		aloneInt.Latency.P99*1e3, colocInt.Latency.P99*1e3, fifoInt.Latency.P99*1e3)
	t.Logf("batch under strict-priority: %d requests, %.0f req/s, %d errors",
		colocBatch.Requests, colocBatch.ThroughputRPS, colocBatch.Errors)

	// The acceptance bound: batch pressure must not move interactive p99
	// past 2x its alone value (a small absolute allowance absorbs
	// scheduler jitter on loaded CI runners — it is an order of magnitude
	// below the inversion being ruled out).
	slack := 5 * colocService.Seconds()
	if colocInt.Latency.P99 > 2*aloneInt.Latency.P99+slack {
		t.Errorf("scheduler failed to protect interactive p99: alone %.2fms, colocated %.2fms (> 2x + %.0fms)",
			aloneInt.Latency.P99*1e3, colocInt.Latency.P99*1e3, slack*1e3)
	}
	// ... while the batch sweep makes progress.
	if colocBatch.Requests < 50 {
		t.Errorf("batch made no real progress under strict priority: %d requests", colocBatch.Requests)
	}
	if colocBatch.ErrorRate > 0.01 {
		t.Errorf("batch error rate %.3f under strict priority; backpressure should block, not fail", colocBatch.ErrorRate)
	}
	// The counterfactual: the old shared FIFO lets the same batch storm
	// invert interactive latency — the exact pathology the scheduler
	// removes. Demand it visibly (beyond the bound the scheduler met).
	if fifoInt.Latency.P99 <= 2*aloneInt.Latency.P99+slack {
		t.Errorf("SharedFIFO did not demonstrate the inversion: alone p99 %.2fms, fifo colocated p99 %.2fms",
			aloneInt.Latency.P99*1e3, fifoInt.Latency.P99*1e3)
	}
	if fifoInt.Latency.P99 <= colocInt.Latency.P99 {
		t.Errorf("strict priority (%.2fms) did not beat shared FIFO (%.2fms) on interactive p99",
			colocInt.Latency.P99*1e3, fifoInt.Latency.P99*1e3)
	}
}

// The catalog colocation scenario runs end to end against a real engine
// and emits a per-class report: both classes present, batch progressing,
// interactive dominated by warm cache hits.
func TestColocationCatalogScenarioReportsPerClass(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real experiments; skipped in -short")
	}
	sc, ok := ScenarioByName("colocation")
	if !ok {
		t.Fatal("colocation scenario missing from catalog")
	}
	eng := serve.NewEngine(serve.Config{Workers: 2})
	defer eng.Close()
	rep, err := Run(engineTarget(eng), sc, Options{Duration: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("load.Run(colocation): %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("colocation report invalid: %v", err)
	}
	ic, ok := rep.Metrics.PerClass[admit.Interactive.String()]
	if !ok || ic.Requests == 0 {
		t.Fatalf("no interactive class in colocation report: %+v", rep.Metrics.PerClass)
	}
	bc, ok := rep.Metrics.PerClass[admit.Batch.String()]
	if !ok || bc.Requests == 0 {
		t.Fatalf("no batch class in colocation report: %+v", rep.Metrics.PerClass)
	}
	if ic.CacheHitRatio < 0.5 {
		t.Errorf("warmed interactive mix should be mostly hits, got ratio %.2f", ic.CacheHitRatio)
	}
	if got := ic.Requests + bc.Requests; got != rep.Metrics.Requests {
		t.Errorf("class requests %d do not sum to total %d", got, rep.Metrics.Requests)
	}
}
