package serve

// Per-tenant accounting plane: the engine's bounded tenant books and
// their /metrics families. The cardinality contract under test: label
// values come from the configured vocabulary plus "other" — never from
// request headers — so a hostile client cannot mint metric series.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
)

func newTenantEngine(tenants ...string) *Engine {
	return NewEngine(Config{
		Shards:     4,
		Workers:    2,
		Tenants:    tenants,
		RunnerWith: byID(func(id string) (core.Result, error) { return fakeResult(id), nil }),
	})
}

func serveAs(t *testing.T, e *Engine, tenant, id string) {
	t.Helper()
	ctx := admit.WithTenant(context.Background(), tenant)
	if _, err := e.ServeWith(ctx, id, core.Params{}); err != nil {
		t.Fatalf("serve %s as %q: %v", id, tenant, err)
	}
}

func TestTenantBooksAccountByDeclaredIdentity(t *testing.T) {
	e := newTenantEngine("alpha", "beta")
	defer e.Close()

	serveAs(t, e, "alpha", "X1")   // cold
	serveAs(t, e, "alpha", "X1")   // hit
	serveAs(t, e, "beta", "X1")    // hit
	serveAs(t, e, "mallory", "X2") // unlisted -> other
	serveAs(t, e, "", "X2")        // untagged -> other

	m := e.Metrics()
	if len(m.Tenants) != 3 {
		t.Fatalf("tenant books %v, want alpha/beta/other", m.Tenants)
	}
	alpha, beta, other := m.Tenants["alpha"], m.Tenants["beta"], m.Tenants["other"]
	if alpha.Requests != 2 || alpha.CacheHits != 1 {
		t.Fatalf("alpha book = %+v, want 2 requests / 1 hit", alpha)
	}
	if beta.Requests != 1 || beta.CacheHits != 1 {
		t.Fatalf("beta book = %+v, want 1 request / 1 hit", beta)
	}
	if other.Requests != 2 || other.CacheHits != 1 {
		t.Fatalf("other book = %+v, want the unlisted and untagged requests", other)
	}
}

// A shed lands in the shedding tenant's book: wedge the single worker
// and fill the depth-1 interactive queue, then the next cold request is
// refused at admission and must be accounted to its tenant.
func TestTenantBooksCountSheds(t *testing.T) {
	release := make(chan struct{})
	e := NewEngine(Config{
		Shards:  4,
		Workers: 1,
		Queue:   1,
		Tenants: []string{"alpha"},
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			}
			return fakeResult(id), nil
		},
	})
	defer e.Close()
	defer close(release)

	ctx := admit.WithTenant(context.Background(), "alpha")
	// Wedge the one slot with W1, then fill the one queue place with W2 —
	// in that order: a W2 that reached the queue before W1 held the slot
	// would be shed, and the queue would never fill.
	go func() { _, _ = e.ServeWith(ctx, "W1", core.Params{}) }()
	waitFor(t, func() bool { return e.Metrics().Scheduler.Running == 1 })
	go func() { _, _ = e.ServeWith(ctx, "W2", core.Params{}) }()
	waitFor(t, func() bool { return e.Metrics().Classes[admit.Interactive.String()].QueueDepth == 1 })

	var shed *admit.ShedError
	sawShed := false
	for i := 0; i < 50 && !sawShed; i++ {
		_, err := e.ServeWith(ctx, "S1", core.Params{})
		if err == nil {
			t.Fatal("over-capacity request served while the worker is wedged")
		}
		sawShed = errors.As(err, &shed)
	}
	if !sawShed {
		t.Fatal("never observed a shed with a wedged worker and a full queue")
	}
	if got := e.Metrics().Tenants["alpha"].Sheds; got < 1 {
		t.Fatalf("alpha sheds = %d, want >= 1", got)
	}
}

func TestTenantMetricsExpositionBounded(t *testing.T) {
	e := newTenantEngine("alpha", "beta")
	defer e.Close()
	h := e.Handler()

	serveAs(t, e, "alpha", "X1")
	serveAs(t, e, "mallory", "X2")

	body := scrape(t, h)
	if problems := obs.Lint(strings.NewReader(body)); len(problems) > 0 {
		t.Fatalf("/metrics with tenant families is not promlint-clean:\n  %s",
			strings.Join(problems, "\n  "))
	}
	for _, want := range []string{
		"# TYPE arch21_tenants gauge",
		"arch21_tenants 3",
		"# TYPE arch21_tenant_requests_total counter",
		`arch21_tenant_requests_total{tenant="alpha"} 1`,
		`arch21_tenant_requests_total{tenant="other"} 1`,
		`arch21_tenant_cache_hits_total{tenant="alpha"}`,
		`arch21_tenant_sheds_total{tenant="beta"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The hostile identity must not mint a label value: cardinality is
	// config-bounded, the request header only selects within it.
	if strings.Contains(body, "mallory") {
		t.Fatal(`unlisted tenant identity leaked into /metrics label values`)
	}
}

// Without a vocabulary there is no tenant plane: no books, no families.
func TestNoTenantVocabularyNoTenantPlane(t *testing.T) {
	e := newTestEngine(func(id string) (core.Result, error) { return fakeResult(id), nil })
	defer e.Close()
	serveAs(t, e, "alpha", "X1")
	if m := e.Metrics(); m.Tenants != nil {
		t.Fatalf("tenant books without a vocabulary: %+v", m.Tenants)
	}
	if body := scrape(t, e.Handler()); strings.Contains(body, "arch21_tenant") {
		t.Fatal("tenant metric families registered without a vocabulary")
	}
}

// A bad vocabulary is an operator config error and must fail loudly at
// construction, exactly like a malformed metric registration.
func TestBadTenantVocabularyPanics(t *testing.T) {
	for _, bad := range [][]string{
		{"alpha", "alpha"}, // duplicate
		{"other"},          // collides with the overflow bucket
		{""},               // empty identity
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEngine(Tenants: %q) did not panic", bad)
				}
			}()
			NewEngine(Config{Workers: 1, Tenants: bad,
				RunnerWith: byID(func(id string) (core.Result, error) { return fakeResult(id), nil })}).Close()
		}()
	}
}
