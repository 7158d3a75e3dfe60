package load

// Multi-tenant acceptance: the catalog's multi-tenant scenario drives a
// 10:1 offered-load skew (anchor 10 closed-loop clients vs tail 1) at a
// real engine keeping per-tenant books, and the report must carry
// per-tenant metrics plus a Jain's fairness index of at least 0.8 —
// demand-normalized, so the skew itself is not unfairness; only
// discriminatory service (one tenant's requests failing while
// another's succeed) drags the index down.

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

func TestMultiTenantScenarioFairnessAndBooks(t *testing.T) {
	if testing.Short() {
		t.Skip("second-scale load experiment; skipped in -short")
	}
	sc, ok := ScenarioByName("multi-tenant")
	if !ok {
		t.Fatal("multi-tenant scenario missing from catalog")
	}
	if len(sc.Groups) != 3 {
		t.Fatalf("multi-tenant scenario has %d mixes, want 3", len(sc.Groups))
	}
	// The offered-load skew under test: anchor's client group must be
	// 10x tail's.
	var anchorClients, tailClients int
	names := make([]string, 0, len(sc.Groups))
	for _, tm := range sc.Groups {
		names = append(names, tm.Tenant)
		switch tm.Tenant {
		case "anchor":
			anchorClients = tm.Clients
		case "tail":
			tailClients = tm.Clients
		}
	}
	if anchorClients != 10*tailClients {
		t.Fatalf("offered-load skew anchor:tail = %d:%d, want 10:1", anchorClients, tailClients)
	}

	eng := serve.NewEngine(serve.Config{
		Workers: 4,
		Tenants: names,
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-time.After(200 * time.Microsecond):
			}
			return core.Result{Findings: []string{"served " + id}}, nil
		},
	})
	defer eng.Close()

	rep, err := Run(engineTarget(eng), sc, Options{Duration: 1200 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if got := rep.Config.Tenants; len(got) != 3 {
		t.Fatalf("report config names %v tenants, want the 3 mixes", got)
	}
	if len(rep.Metrics.PerTenant) != 3 {
		t.Fatalf("per-tenant books %v, want all 3 mixes", rep.Metrics.PerTenant)
	}
	anchor := rep.Metrics.PerTenant["anchor"]
	tail := rep.Metrics.PerTenant["tail"]
	if anchor.Requests == 0 || tail.Requests == 0 {
		t.Fatalf("tenant books empty: anchor %d, tail %d", anchor.Requests, tail.Requests)
	}
	// The skew must be visible in the books (10 clients vs 1, identical
	// think-time-free loops): well over 2x, even with scheduling noise.
	if anchor.Requests < 2*tail.Requests {
		t.Fatalf("offered-load skew not realized: anchor %d requests vs tail %d",
			anchor.Requests, tail.Requests)
	}
	if rep.Metrics.FairnessIndex < 0.8 {
		t.Fatalf("Jain's fairness %.3f under 10:1 offered skew, want >= 0.8 (per-tenant: %+v)",
			rep.Metrics.FairnessIndex, rep.Metrics.PerTenant)
	}
	t.Logf("fairness %.3f; anchor %d req, tail %d req, bulk %d req",
		rep.Metrics.FairnessIndex, anchor.Requests, tail.Requests,
		rep.Metrics.PerTenant["bulk"].Requests)

	// The engine's own bounded books saw the same tenants: every mix
	// accounted, nothing folded into "other" (all identities declared).
	em := eng.Metrics()
	for _, name := range names {
		tm, ok := em.Tenants[name]
		if !ok || tm.Requests == 0 {
			t.Fatalf("engine tenant book %q missing or empty: %+v", name, em.Tenants)
		}
	}
	if other := em.Tenants["other"]; other.Requests != 0 {
		t.Fatalf("declared-tenant traffic leaked into the other bucket: %+v", other)
	}
}
