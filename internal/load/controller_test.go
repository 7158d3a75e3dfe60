package load

// The observability plane's colocation acceptance: run the real QoS
// feedback loop (qos.Supervisor over serve.Engine) through a latency
// storm and verify FROM THE RECORDED EVENT TIMELINE — the same stream
// /events and BENCH artifacts expose — that the controller halves the
// batch rate while the interactive p99 is violating and restores at
// least 80% of the pre-storm batch rate within 5 seconds of storm end.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/stats"
)

func TestColocationControllerRecoversBatchRateAfterStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second feedback-loop experiment; skipped in -short")
	}

	// Interactive service time is the storm dial: 1ms when calm (far
	// inside the 20ms SLO), 40ms during the storm (double the SLO, so
	// every supervisor tick sees a deterministic violation).
	const (
		slo      = 20 * time.Millisecond
		calmLat  = time.Millisecond
		stormLat = 40 * time.Millisecond
	)
	var interactiveLat atomic.Int64
	interactiveLat.Store(int64(calmLat))

	eng := serve.NewEngine(serve.Config{
		Shards:  8,
		Workers: 8,
		Queue:   64,
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			d := 500 * time.Microsecond // batch keys
			if id[0] == 'i' {
				d = time.Duration(interactiveLat.Load())
			}
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-time.After(d):
			}
			return core.Result{Findings: []string{"served " + id}}, nil
		},
	})
	defer eng.Close()

	sup := &qos.Supervisor{
		Ctrl:       qos.NewRateController(slo.Seconds(), 256, 1, 2048),
		Window:     func() stats.LatencySnapshot { return eng.TakeClassWindow(admit.Interactive) },
		Apply:      eng.SetBatchRate,
		Events:     eng.Events(),
		Interval:   50 * time.Millisecond,
		MinSamples: 4,
	}
	eng.SetBatchRate(sup.Ctrl.Rate())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sup.Run(ctx)

	// The colocation workload: 6 interactive clients over unique cold
	// keys (so every sample costs the dialed service time) plus 2 batch
	// clients riding the token bucket the controller is steering.
	var wg sync.WaitGroup
	var seq atomic.Int64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				id := fmt.Sprintf("i%08d", seq.Add(1))
				ictx := admit.WithClass(ctx, admit.Interactive)
				_, _ = eng.ServeWith(ictx, id, core.Params{})
			}
		}()
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				id := fmt.Sprintf("b%08d", seq.Add(1))
				bctx, bcancel := context.WithTimeout(admit.WithClass(ctx, admit.Batch), 250*time.Millisecond)
				_, err := eng.ServeWith(bctx, id, core.Params{})
				bcancel()
				// Pace the storm-side client: a throttled batch request sheds
				// instantly, and a busy-loop of sheds would flood the event
				// ring and evict the controller timeline under test.
				if err != nil {
					select {
					case <-ctx.Done():
					case <-time.After(100 * time.Millisecond):
					}
				}
			}
		}()
	}
	defer wg.Wait()
	defer cancel()

	// Phase 1 — calm: let the controller reclaim toward its ceiling.
	time.Sleep(400 * time.Millisecond)
	preRate := eng.Metrics().Scheduler.BatchRate
	if preRate <= 0 {
		t.Fatalf("pre-storm batch rate %g; controller never engaged", preRate)
	}

	// Phase 2 — storm: interactive p99 jumps to 2x the SLO.
	stormStart := time.Now()
	interactiveLat.Store(int64(stormLat))
	time.Sleep(450 * time.Millisecond)

	// Phase 3 — storm ends; the controller must give batch its rate back.
	stormEnd := time.Now()
	interactiveLat.Store(int64(calmLat))
	target := 0.8 * preRate
	deadline := stormEnd.Add(5 * time.Second)
	for time.Now().Before(deadline) && eng.Metrics().Scheduler.BatchRate < target {
		time.Sleep(25 * time.Millisecond)
	}

	// The verdict comes from the recorded event timeline, not from
	// engine internals: that is the contract BENCH artifacts and the
	// /events API rely on.
	events := eng.Events().Since(0)
	var halvesDuringStorm int
	var stormFloor = preRate
	var recoveredAt time.Time
	for _, ev := range events {
		if ev.Type != obs.EventController {
			continue
		}
		at := time.Unix(0, ev.TimeUnixNano)
		switch {
		case ev.Labels["action"] == "halve" && at.After(stormStart):
			halvesDuringStorm++
			if r := ev.Data["rate_after"]; r < stormFloor {
				stormFloor = r
			}
		case at.After(stormEnd) && ev.Data["rate_after"] >= target:
			if recoveredAt.IsZero() {
				recoveredAt = at
			}
		}
	}
	t.Logf("pre-storm rate %.0f tokens/s; %d halves during storm (floor %.1f); recovery target %.0f",
		preRate, halvesDuringStorm, stormFloor, target)

	if halvesDuringStorm == 0 {
		t.Fatalf("no halve decisions recorded during the storm; %d controller events total", len(events))
	}
	if stormFloor >= preRate {
		t.Fatalf("storm never reduced the batch rate below its pre-storm value %.0f", preRate)
	}
	if recoveredAt.IsZero() {
		t.Fatalf("event timeline never shows the batch rate recovering to %.0f (80%% of pre-storm %.0f); final rate %.1f",
			target, preRate, eng.Metrics().Scheduler.BatchRate)
	}
	if rec := recoveredAt.Sub(stormEnd); rec > 5*time.Second {
		t.Fatalf("controller took %v to restore 80%% of the pre-storm batch rate (limit 5s)", rec)
	} else {
		t.Logf("restored %.0f%% of pre-storm batch rate %v after storm end", 100*target/preRate, rec)
	}
}
