package router

// Latency-aware routing suite: scoreboard warm-up and budget math,
// chain demotion with canaries, hedged backups racing a degraded
// primary (first response wins, loser canceled, zero goroutine leak),
// and the 4xx-never-hedged invariant.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// primeScore warms one replica's scoreboard row past hedgeWarmup with a
// constant observation, so tests control the budget directly instead of
// issuing warm-up traffic.
func primeScore(r *Router, b int, d time.Duration) {
	for i := 0; i < hedgeWarmup; i++ {
		r.sb.observe(b, d)
	}
}

// keyOwnedBy finds an ID whose routing key the given backend owns.
func keyOwnedBy(t *testing.T, r *Router, owner int) string {
	t.Helper()
	for i := 0; i < 4096; i++ {
		id := fmt.Sprintf("HK%d", i)
		if ownerOf(r, id, nil) == owner {
			return id
		}
	}
	t.Fatal("no key found for owner")
	return ""
}

// waitInflightDrain polls until no attempt is outstanding on any
// replica — the canceled hedge loser must unwind, not linger.
func waitInflightDrain(t *testing.T, r *Router) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		total := int64(0)
		for i := range r.sb.scores {
			total += r.sb.scores[i].inflight.Load()
		}
		if total == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("in-flight attempts did not drain")
}

func TestScoreboardBudgetWarmupAndClamps(t *testing.T) {
	sb := newScoreboard(1, time.Millisecond, time.Second)
	for i := 0; i < hedgeWarmup-1; i++ {
		sb.observe(0, 10*time.Millisecond)
		if _, ok := sb.budget(0); ok {
			t.Fatalf("budget trusted after %d samples, warmup is %d", i+1, hedgeWarmup)
		}
	}
	sb.observe(0, 10*time.Millisecond)
	d, ok := sb.budget(0)
	if !ok {
		t.Fatal("no budget after warmup")
	}
	// A constant stream has zero variance: budget == mean.
	if d < 9*time.Millisecond || d > 11*time.Millisecond {
		t.Fatalf("constant 10ms stream: budget %v, want ~10ms", d)
	}

	// Microsecond traffic clamps to the floor, not scheduler noise.
	fast := newScoreboard(1, time.Millisecond, time.Second)
	for i := 0; i < hedgeWarmup; i++ {
		fast.observe(0, time.Microsecond)
	}
	if d, _ := fast.budget(0); d != time.Millisecond {
		t.Fatalf("microsecond stream: budget %v, want the 1ms floor", d)
	}

	// A pathological stream clamps to the ceiling (the attempt timeout).
	slow := newScoreboard(1, time.Millisecond, time.Second)
	for i := 0; i < hedgeWarmup; i++ {
		slow.observe(0, 10*time.Second)
	}
	if d, _ := slow.budget(0); d != time.Second {
		t.Fatalf("10s stream: budget %v, want the 1s ceiling", d)
	}
}

func TestScoreboardEWMADecayRecovers(t *testing.T) {
	// A replica that was slow and then healed: the EWMA must track the
	// step back down so demotion is not forever.
	sb := newScoreboard(1, time.Millisecond, time.Minute)
	for i := 0; i < hedgeWarmup; i++ {
		sb.observe(0, 100*time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		sb.observe(0, time.Millisecond)
	}
	mean, _, _ := sb.snapshot(0)
	if mean > 0.002 {
		t.Fatalf("after 50 healthy samples the EWMA is still %.4fs, decay too slow", mean)
	}
}

func TestScoreboardPreferDemotesWithCanary(t *testing.T) {
	sb := newScoreboard(2, time.Millisecond, time.Minute)
	for i := 0; i < hedgeWarmup; i++ {
		sb.observe(0, 80*time.Millisecond) // owner: 80x slower
		sb.observe(1, time.Millisecond)
	}
	swapped, kept := 0, 0
	for i := 0; i < 2*canaryEvery; i++ {
		chain := []int{0, 1}
		sb.prefer(chain)
		if chain[0] == 1 {
			swapped++
		} else {
			kept++
		}
	}
	if kept != 2 {
		t.Fatalf("over %d demotion decisions, %d canaries went owner-first, want 2", 2*canaryEvery, kept)
	}
	if swapped != 2*canaryEvery-2 {
		t.Fatalf("swapped %d, want %d", swapped, 2*canaryEvery-2)
	}
}

func TestScoreboardPreferNeedsWarmthAndRatio(t *testing.T) {
	// Successor not warmed: no demotion, however slow the owner looks.
	sb := newScoreboard(2, time.Millisecond, time.Minute)
	for i := 0; i < hedgeWarmup; i++ {
		sb.observe(0, time.Second)
	}
	chain := []int{0, 1}
	sb.prefer(chain)
	if chain[0] != 0 {
		t.Fatal("demoted the owner against an unwarmed successor")
	}

	// Both warm but the gap is below demoteRatio: stay owner-first.
	sb2 := newScoreboard(2, time.Millisecond, time.Minute)
	for i := 0; i < hedgeWarmup; i++ {
		sb2.observe(0, 4*time.Millisecond) // 4x, below the 8x bar
		sb2.observe(1, time.Millisecond)
	}
	chain = []int{0, 1}
	sb2.prefer(chain)
	if chain[0] != 0 {
		t.Fatal("demoted the owner on a below-threshold gap")
	}
}

// newHedgeCluster builds n engine replicas wrapped in FaultBackends
// behind a router with test-friendly hedging (1ms floor, short attempt
// timeout).
func newHedgeCluster(t *testing.T, n int, cfg Config) (*Router, []*FaultBackend) {
	t.Helper()
	faults := make([]*FaultBackend, n)
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		faults[i] = NewFaultBackend(NewEngineBackend(newTestEngine(t), fmt.Sprintf("engine[%d]", i)))
		backends[i] = faults[i]
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	r, err := New(backends, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, faults
}

func TestHedgeFiresOnSlowPrimaryAndBackupWins(t *testing.T) {
	r, faults := newHedgeCluster(t, 2, Config{})
	id := keyOwnedBy(t, r, 0)
	faults[0].Degrade(150 * time.Millisecond)
	// Both replicas look fast and warm: the budget bottoms out at the
	// 1ms floor, so the degraded primary blows it immediately.
	primeScore(r, 0, 100*time.Microsecond)
	primeScore(r, 1, 100*time.Microsecond)

	t0 := time.Now()
	resp, err := serveDecoded(context.Background(), r, id, nil)
	elapsed := time.Since(t0)
	if err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if resp.ID != id {
		t.Fatalf("response for %q, want %q", resp.ID, id)
	}
	// The backup's answer must land well under the primary's injected
	// 150ms — the whole point of hedging.
	if elapsed > 100*time.Millisecond {
		t.Fatalf("hedged request took %v, the backup did not win", elapsed)
	}
	m := r.Metrics()
	if m.Hedges != 1 || m.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", m.Hedges, m.HedgeWins)
	}
	if m.Failovers != 0 {
		t.Fatalf("a hedge is not a failover, got %d", m.Failovers)
	}
	// The hedge is attributed to the slow primary's row.
	if m.Health[0].Hedges != 1 || m.Health[0].HedgeWins != 1 {
		t.Fatalf("primary row: %+v", m.Health[0])
	}
	waitInflightDrain(t, r)
	// The canceled primary never reached its engine: Degrade's
	// context-aware sleep unwound first, so no duplicate execution.
	if calls := faults[0].faults.Load(); calls != 1 {
		t.Fatalf("primary faults=%d, want 1 (the canceled degraded attempt)", calls)
	}
}

func TestHedgeLoserCanceledNoGoroutineLeak(t *testing.T) {
	r, faults := newHedgeCluster(t, 3, Config{})
	faults[0].Degrade(100 * time.Millisecond)
	for i := range faults {
		primeScore(r, i, 100*time.Microsecond)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 30; i++ {
		id := keyOwnedBy(t, r, 0)
		if _, err := serveDecoded(context.Background(), r, id, core.Params{}); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	waitInflightDrain(t, r)
	// The ±2x bracket idiom from the chaos suite: canceled losers must
	// unwind promptly, so the goroutine count returns to near baseline
	// instead of growing with the request count.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+10 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Fatalf("goroutines grew %d -> %d over 30 hedged requests: losers leaked", before, after)
	}
	if m := r.Metrics(); m.Hedges == 0 {
		t.Fatal("degraded primary never triggered a hedge")
	}
}

// errBackend answers every request instantly with a fixed error.
type errBackend struct {
	name  string
	err   error
	calls atomic.Int64
}

func (e *errBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	return perRequest(func(context.Context, string, core.Params) (serve.Response, error) {
		e.calls.Add(1)
		return serve.Response{}, e.err
	}).DoBatch(ctx, items)
}
func (e *errBackend) Check() error { return nil }
func (e *errBackend) Name() string { return e.name }

func Test4xxNeverHedged(t *testing.T) {
	// The primary answers with a client error immediately — long before
	// any budget expires. No hedge may fire and no failover may happen:
	// the verdict is identical on every replica.
	bad := &errBackend{name: "bad", err: fmt.Errorf("%w: NOPE", serve.ErrUnknownExperiment)}
	other := &errBackend{name: "other", err: errors.New("should never be called")}
	r, err := New([]Backend{bad, other}, Config{Timeout: time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	primeScore(r, 0, 100*time.Microsecond)
	primeScore(r, 1, 100*time.Microsecond)
	id := keyOwnedBy(t, r, 0)

	_, err = serveDecoded(context.Background(), r, id, nil)
	if !errors.Is(err, serve.ErrUnknownExperiment) {
		t.Fatalf("want the replica's 4xx verdict back, got %v", err)
	}
	m := r.Metrics()
	if m.Hedges != 0 {
		t.Fatalf("a 4xx was hedged: %d", m.Hedges)
	}
	if m.Failovers != 0 {
		t.Fatalf("a 4xx failed over: %d", m.Failovers)
	}
	if other.calls.Load() != 0 {
		t.Fatal("the second replica saw traffic for a client error")
	}
}

func TestDisableHedgeHonored(t *testing.T) {
	r, faults := newHedgeCluster(t, 2, Config{DisableHedge: true})
	id := keyOwnedBy(t, r, 0)
	faults[0].Degrade(30 * time.Millisecond)
	primeScore(r, 0, 100*time.Microsecond)
	primeScore(r, 1, 100*time.Microsecond)
	t0 := time.Now()
	if _, err := serveDecoded(context.Background(), r, id, nil); err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if elapsed := time.Since(t0); elapsed < 30*time.Millisecond {
		t.Fatalf("request finished in %v with hedging disabled: something raced", elapsed)
	}
	if m := r.Metrics(); m.Hedges != 0 {
		t.Fatalf("hedges fired while disabled: %d", m.Hedges)
	}
}

func TestHedgeSkippedDuringWarmup(t *testing.T) {
	// No trusted budget, no backup — an untrusted estimate must not
	// double warm-path load.
	r, faults := newHedgeCluster(t, 2, Config{})
	id := keyOwnedBy(t, r, 0)
	faults[0].Degrade(20 * time.Millisecond)
	if _, err := serveDecoded(context.Background(), r, id, nil); err != nil {
		t.Fatalf("ServeWith: %v", err)
	}
	if m := r.Metrics(); m.Hedges != 0 {
		t.Fatalf("hedged during scoreboard warm-up: %d", m.Hedges)
	}
}
