package load

// Acceptance test for latency-aware routing (the degraded-replica
// scenario): a 3-replica cluster with one replica injected 25x slower
// must keep routed p99 within 2x of the all-healthy baseline — hedged
// backups and scoreboard demotion route around the straggler — while
// issuing zero duplicate executions (every hedge and demoted request is
// a cache hit on a pre-warmed sibling) and preserving each engine's
// per-class conservation law.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
)

// p99 returns the exact 99th percentile of the observed durations.
func p99(durations []time.Duration) time.Duration {
	s := append([]time.Duration(nil), durations...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(0.99*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

func TestDegradedReplicaHedgingHoldsP99(t *testing.T) {
	const (
		replicas    = 3
		keys        = 40
		baseLatency = 2 * time.Millisecond // every replica: an ms-scale baseline robust to scheduler noise
		slowLatency = 50 * time.Millisecond
	)
	engines := make([]*serve.Engine, replicas)
	faults := make([]*router.FaultBackend, replicas)
	backends := make([]router.Backend, replicas)
	for i := range engines {
		engines[i] = serve.NewEngine(serve.Config{Shards: 8, Workers: 4,
			RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
				return core.Result{Findings: []string{"ok " + id}}, nil
			}})
		defer engines[i].Close()
		faults[i] = router.NewFaultBackend(router.NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i)))
		faults[i].Degrade(baseLatency)
		backends[i] = faults[i]
	}
	rt, err := router.New(backends, router.Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}

	ids := make([]string, keys)
	for i := range ids {
		ids[i] = fmt.Sprintf("DK%d", i)
	}
	// Warm every key on EVERY engine directly (bypassing the router): a
	// hedged backup or demoted request landing on a non-owner must be a
	// cache hit, so the measured window can assert zero executions — the
	// "hedges never double-execute" criterion in its strongest form.
	for _, eng := range engines {
		for _, id := range ids {
			if _, err := eng.ServeWith(context.Background(), id, nil); err != nil {
				t.Fatalf("warm: %v", err)
			}
		}
	}

	pass := func() []time.Duration {
		out := make([]time.Duration, 0, len(ids))
		for _, id := range ids {
			t0 := time.Now()
			if _, err := rt.ServeEncoded(context.Background(), id, nil); err != nil {
				t.Fatalf("routed %s: %v", id, err)
			}
			out = append(out, time.Since(t0))
		}
		return out
	}

	// Baseline: the first passes warm the scoreboards past hedgeWarmup,
	// then the measured passes capture all-healthy latencies.
	for i := 0; i < 3; i++ {
		pass()
	}
	var base []time.Duration
	for i := 0; i < 5; i++ {
		base = append(base, pass()...)
	}
	p99Base := p99(base)

	// Degrade one replica. Settle passes give the hedging loop room to
	// observe the straggler (abandoned-attempt lower bounds push its
	// EWMA up) and the scoreboard room to demote it.
	faults[0].Degrade(slowLatency)
	for i := 0; i < 4; i++ {
		pass()
	}

	execBefore := int64(0)
	for _, eng := range engines {
		execBefore += eng.Metrics().Executions
	}
	hedgesBefore := rt.Metrics().Hedges

	var degraded []time.Duration
	for i := 0; i < 10; i++ {
		degraded = append(degraded, pass()...)
	}
	p99Deg := p99(degraded)

	m := rt.Metrics()
	if hedges := m.Hedges - hedgesBefore; hedges == 0 && m.Hedges == 0 {
		t.Fatal("no hedges were ever issued against the degraded replica")
	}
	if p99Deg > 2*p99Base {
		t.Fatalf("degraded p99 %v exceeds 2x the healthy baseline p99 %v (hedging failed to contain the straggler)",
			p99Deg, p99Base)
	}
	execAfter := int64(0)
	for _, eng := range engines {
		execAfter += eng.Metrics().Executions
	}
	if execAfter != execBefore {
		t.Fatalf("measured window executed %d experiments; every hedged or demoted request must be a warm cache hit",
			execAfter-execBefore)
	}
	// Conservation per engine per class: hedges are extra backend
	// attempts, and each one must still balance the books of whichever
	// engine absorbed it.
	for i, eng := range engines {
		em := eng.Metrics()
		for class, cm := range em.Classes {
			if err := cm.Balance(); err != nil {
				t.Fatalf("engine[%d] class %s: %v", i, class, err)
			}
		}
	}
}
