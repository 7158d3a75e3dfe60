package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// newParamTestEngine injects a RunnerWith that counts executions and
// returns a findings-only result describing the assignment it ran under.
// IDs must be registered (resolution consults the registry's schemas).
func newParamTestEngine(execs *atomic.Int64) *Engine {
	return NewEngine(Config{
		Shards:  4,
		Workers: 2,
		RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
			execs.Add(1)
			f := id
			for _, name := range p.SortedNames() {
				f += " " + name + "=" + core.FormatParamValue(p[name])
			}
			return core.Result{Findings: []string{f}}, nil
		},
	})
}

// Distinct grid points memoize independently; repeats of the same point
// cost one execution.
func TestServeWithMemoizesPerPoint(t *testing.T) {
	var execs atomic.Int64
	e := newParamTestEngine(&execs)
	defer e.Close()

	a, err := e.ServeWith(context.Background(), "E7", core.Params{"bces": 512})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if a.Key != "E7?bces=512" {
		t.Fatalf("key = %q", a.Key)
	}
	if a.Params["f"] != 0.975 {
		t.Fatalf("defaults not resolved: %v", a.Params)
	}
	b, err := e.ServeWith(context.Background(), "E7", core.Params{"bces": 1024})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if b.CacheHit {
		t.Fatal("distinct point must not hit the first point's entry")
	}
	again, err := e.ServeWith(context.Background(), "E7", core.Params{"bces": 512})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if !again.CacheHit {
		t.Fatal("repeat of a memoized point must hit")
	}
	if again.Result.Render() != a.Result.Render() {
		t.Fatal("memoized point differs from cold point")
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (one per unique point)", got)
	}
}

// An explicit all-defaults assignment shares the bare-ID cache entry with
// the zero-param path.
func TestServeWithDefaultsSharesBareIDEntry(t *testing.T) {
	var execs atomic.Int64
	e := newParamTestEngine(&execs)
	defer e.Close()

	if _, err := serveDefault(e, "E1"); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	r, err := e.ServeWith(context.Background(), "E1", core.Params{"gens": 6})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if !r.CacheHit || r.Key != "E1" {
		t.Fatalf("explicit defaults should hit the bare-ID entry: %+v", r)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

func TestServeWithRejectsBadParams(t *testing.T) {
	var execs atomic.Int64
	e := newParamTestEngine(&execs)
	defer e.Close()

	if _, err := e.ServeWith(context.Background(), "E1", core.Params{"bogus": 1}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("unknown param: got %v, want ErrBadParams", err)
	}
	if _, err := e.ServeWith(context.Background(), "E1", core.Params{"gens": 99}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("out of range: got %v, want ErrBadParams", err)
	}
	if _, err := e.ServeWith(context.Background(), "nope", core.Params{"x": 1}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("unknown id: got %v, want ErrUnknownExperiment", err)
	}
	if got := execs.Load(); got != 0 {
		t.Fatalf("rejected requests must not execute, got %d", got)
	}
}

// Findings-only results (what a custom runner or a sweep point may
// produce) survive the memoization round trip through the cache.
func TestServeWithMemoizesFindingsOnlyResult(t *testing.T) {
	var execs atomic.Int64
	e := newParamTestEngine(&execs)
	defer e.Close()

	cold, err := e.ServeWith(context.Background(), "E20", core.Params{"n": 64})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if cold.Result.Table != nil || cold.Result.Figure != nil {
		t.Fatalf("fixture should be findings-only: %+v", cold.Result)
	}
	hit, err := e.ServeWith(context.Background(), "E20", core.Params{"n": 64})
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if !hit.CacheHit {
		t.Fatal("findings-only result was not memoized")
	}
	if len(hit.Result.Findings) != 1 || hit.Result.Findings[0] != cold.Result.Findings[0] {
		t.Fatalf("findings lost through the cache: %+v", hit.Result)
	}
}
