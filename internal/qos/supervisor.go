package qos

// The live feedback loop, extracted from cmd/arch21d's inline ticker so
// the control plane can observe and retune it: every tick the supervisor
// reads the interactive-class latency window, feeds the p99 to the
// RateController, applies the returned batch rate, and records the
// decision — action, before/after rates, observed p99, target — as an
// obs.EventController the /events API and BENCH reports surface.

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Decision is one controller step, in the vocabulary the event log uses.
type Decision struct {
	// Action is "halve" (violating: batch gives ground), "reclaim"
	// (comfortably inside the SLO: batch takes 20% back), or "hold"
	// (dead band, or not enough signal).
	Action string
	// RateBefore and RateAfter are the batch token-bucket rates around
	// the step.
	RateBefore, RateAfter float64
	// P99 is the observed window p99 (seconds); SLO the target.
	P99, SLO float64
}

// Decide feeds one observed LC p99 (seconds) and returns the full
// decision. Update remains the scalar form.
func (c *RateController) Decide(p99 float64) Decision {
	d := Decision{RateBefore: c.rate, P99: p99, SLO: c.SLO, Action: "hold"}
	switch {
	case p99 <= 0 || math.IsNaN(p99) || math.IsInf(p99, 0) || c.SLO <= 0:
	case p99 > c.SLO:
		c.rate = c.clamp(c.rate * 0.5)
		d.Action = "halve"
	case p99 < 0.7*c.SLO:
		c.rate = c.clamp(c.rate * 1.2)
		d.Action = "reclaim"
	}
	d.RateAfter = c.rate
	if d.Action != "hold" && d.RateAfter == d.RateBefore {
		// Clamped into place: the controller decided, the clamp vetoed.
		d.Action = "hold"
	}
	return d
}

// Supervisor runs the feedback loop on a wall clock: window in,
// controller step, actuator out, event recorded. It owns the
// controller's concurrency: SetSLO may be called from any goroutine
// (the POST /control path) while Run ticks.
type Supervisor struct {
	// Ctrl is the controller being driven.
	Ctrl *RateController
	// Window drains the interactive-class latency window accumulated
	// since the previous tick (serve.Engine.TakeClassWindow).
	Window func() stats.LatencySnapshot
	// Apply actuates the new batch rate (serve.Engine.SetBatchRate).
	Apply func(rate float64)
	// Events receives one EventController per tick with traffic
	// (nil-safe: a nil ring drops them).
	Events *obs.Events
	// Interval is the tick period (default 1s).
	Interval time.Duration
	// MinSamples is the window population below which the tick holds
	// rather than steer on noise (default 10).
	MinSamples int

	mu sync.Mutex
}

// SetSLO retunes the p99 target live (must be positive). Safe to call
// concurrently with Run.
func (s *Supervisor) SetSLO(slo time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Ctrl.SLO = slo.Seconds()
	return nil
}

// Tick runs one supervision step and returns the decision taken (Action
// "hold" with zero P99 when the window was too thin to steer on).
func (s *Supervisor) Tick() Decision {
	snap := s.Window()
	min := s.MinSamples
	if min <= 0 {
		min = 10
	}
	s.mu.Lock()
	if snap.Count < min {
		d := Decision{Action: "hold", RateBefore: s.Ctrl.rate, RateAfter: s.Ctrl.rate, SLO: s.Ctrl.SLO}
		s.mu.Unlock()
		return d
	}
	d := s.Ctrl.Decide(snap.P99)
	s.mu.Unlock()
	if d.RateAfter != d.RateBefore {
		s.Apply(d.RateAfter)
	}
	s.Events.Record(obs.EventController,
		map[string]string{"action": d.Action},
		map[string]float64{
			"rate_before": d.RateBefore,
			"rate_after":  d.RateAfter,
			"p99":         d.P99,
			"slo":         d.SLO,
		})
	return d
}

// Run ticks until ctx is done.
func (s *Supervisor) Run(ctx context.Context) {
	interval := s.Interval
	if interval <= 0 {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Tick()
		}
	}
}
