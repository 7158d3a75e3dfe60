package router

// Fault-injection backend, promoted from the PR 4 test suite so the
// chaos harness (internal/load's soak mode, `arch21 loadtest -chaos`)
// and the router's own tests compose the same doubles: replica kills,
// hard hangs, and error bursts, injected live while real load flows.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// ErrInjectedFault is the failure every FaultBackend fault surfaces, so
// harness code can tell injected chaos from organic errors.
var ErrInjectedFault = errors.New("injected fault")

// FaultBackend wraps an inner Backend with operator-controlled faults:
//
//   - Kill/Revive — a crashed replica: every frame fails fast and Check
//     fails, so the router ejects it and probes it back after revival.
//   - Hang/Release — a wedged replica: DoBatch blocks until released or
//     the caller's context expires (a hang must not leak goroutines past
//     their deadlines), while Check still succeeds — the failure mode
//     health probes cannot see.
//   - ErrorBurst(n) — the next n frames fail fast: a transient fault
//     that exercises failover without tripping ejection thresholds
//     when n is small.
//   - Degrade(d) — a slow replica: every frame waits d before
//     delegating, but still answers correctly and passes health checks.
//     The failure mode ejection cannot fix and only latency-aware
//     routing (hedging, scoreboard demotion) mitigates.
//
// A fault is injected once per frame, as the transport-level error a
// lost exchange is. All methods are safe for concurrent use.
type FaultBackend struct {
	inner Backend

	killed  atomic.Bool
	burst   atomic.Int64
	degrade atomic.Int64 // added service latency, nanoseconds

	mu   sync.Mutex
	hung chan struct{} // non-nil while hanging; closed by Release

	faults atomic.Int64
}

// NewFaultBackend wraps inner; the zero state injects nothing.
func NewFaultBackend(inner Backend) *FaultBackend {
	return &FaultBackend{inner: inner}
}

// Kill crash-stops the backend: every frame and Check fails until Revive.
// In-flight calls complete — a kill is a crash, not a time machine.
func (f *FaultBackend) Kill() { f.killed.Store(true) }

// Revive brings a killed backend back; the router re-admits it after a
// successful health probe.
func (f *FaultBackend) Revive() { f.killed.Store(false) }

// Hang wedges the backend: every frame blocks until Release (or its
// context's deadline). Health checks keep passing. Hanging an already
// hung backend is a no-op.
func (f *FaultBackend) Hang() {
	f.mu.Lock()
	if f.hung == nil {
		f.hung = make(chan struct{})
	}
	f.mu.Unlock()
}

// Release unwedges a hung backend, letting blocked calls proceed.
func (f *FaultBackend) Release() {
	f.mu.Lock()
	if f.hung != nil {
		close(f.hung)
		f.hung = nil
	}
	f.mu.Unlock()
}

// ErrorBurst makes the next n frames fail fast with ErrInjectedFault.
func (f *FaultBackend) ErrorBurst(n int) { f.burst.Store(int64(n)) }

// Degrade adds d of service latency to every subsequent frame (0 heals).
// Unlike Hang, degraded calls still complete and health checks still
// pass — the replica is slow, not dead.
func (f *FaultBackend) Degrade(d time.Duration) { f.degrade.Store(int64(d)) }

// DoBatch implements Backend with the configured faults applied.
func (f *FaultBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	if f.killed.Load() {
		f.faults.Add(1)
		return nil, ErrInjectedFault
	}
	for {
		f.mu.Lock()
		hung := f.hung
		f.mu.Unlock()
		if hung == nil {
			break
		}
		select {
		case <-hung:
			// Released; re-check in case of an immediate re-hang.
		case <-ctx.Done():
			f.faults.Add(1)
			return nil, ctx.Err()
		}
	}
	if f.burst.Load() > 0 && f.burst.Add(-1) >= 0 {
		f.faults.Add(1)
		return nil, ErrInjectedFault
	}
	if d := time.Duration(f.degrade.Load()); d > 0 {
		// A context-aware sleep: a degraded replica abandoned by a winning
		// hedge (or an expired deadline) must return promptly, not hold
		// the goroutine for the full injected latency.
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			f.faults.Add(1)
			return nil, ctx.Err()
		}
	}
	return f.inner.DoBatch(ctx, items)
}

// Check implements Backend: fails while killed, passes while hung (a
// wedged replica looks healthy to cheap probes — that is the point).
func (f *FaultBackend) Check() error {
	if f.killed.Load() {
		return ErrInjectedFault
	}
	return f.inner.Check()
}

// Name implements Backend.
func (f *FaultBackend) Name() string { return f.inner.Name() }
