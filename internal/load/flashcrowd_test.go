package load

// The adversarial-workload acceptance for the flash-crowd scenario
// shape: replay a piecewise rate schedule with a 7.5x step through the
// real QoS feedback loop (qos.Supervisor over serve.Engine) and verify
// FROM THE RECORDED EVENT TIMELINE — the same stream /events and BENCH
// artifacts expose — that the controller halves the batch rate during
// the step and restores at least 80% of the pre-storm rate within 5
// seconds of the step's end.

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestFlashCrowdScheduleDrivesControllerHalveAndRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second schedule-replay experiment; skipped in -short")
	}

	// The step is sized against the engine's execution capacity, not a
	// latency dial: 4 workers x 5ms service = 800 exec/s, so the 120/s
	// baseline is far inside the 20ms SLO and the 900/s step queues
	// unboundedly for its whole second.
	const (
		slo       = 20 * time.Millisecond
		service   = 5 * time.Millisecond
		baseline  = 1500 * time.Millisecond // pre-step calm
		step      = time.Second             // the flash crowd
		tail      = 4 * time.Second         // post-step recovery window
		stepSlack = 150 * time.Millisecond  // tick quantization + trace-gen offset
	)
	sched := workload.MustRateSchedule("120@1500ms,900@1s,120@4s")

	eng := serve.NewEngine(serve.Config{
		Shards:  8,
		Workers: 4,
		// Deep queue: the step must manifest as queueing delay the
		// controller sees, not as a shed flood that evicts the controller
		// timeline from the event ring.
		Queue: 4096,
		RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-time.After(service):
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

	// The scenario mirrors the catalog's flash-crowd shape (open loop, a
	// schedule with a hard step, churn) but over a ~100-key grid so
	// singleflight dedup cannot quietly absorb the storm: with 12 hot
	// keys the dedup equilibrium sojourn sits under the SLO and the test
	// would measure luck instead of the controller.
	sc := Scenario{
		Name: "flash-crowd-acceptance",
		Doc:  "schedule step acceptance",
		Mode: OpenLoop,
		Variants: gridVariants("E7",
			"f=0.9:0.99:0.005", "bces=16,64,256,1024,4096"),
		Skew:     0,
		Schedule: &sched,
		Churn:    true,
		Seed:     42,
	}

	t0 := time.Now() // trace replay anchors here (no warmup, no reset)
	// Every arrival is served under a fresh ID (freshIDs), so none is a
	// cache hit: each pays real service time, and offered load maps to
	// execution load.
	rep, err := Run(NewServerTarget(&freshIDs{eng: eng}, "engine", eng.Reset), sc, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	stepStart := t0.Add(baseline)
	stepEnd := t0.Add(baseline + step)

	if rep.Config.Schedule != sched.String() {
		t.Fatalf("report schedule %q, want %q", rep.Config.Schedule, sched.String())
	}
	if !rep.Config.Churn {
		t.Fatal("report does not record churn")
	}
	if hits := eng.Metrics().CacheHits; hits != 0 {
		t.Fatalf("%d arrivals were cache hits, want every one executed", hits)
	}

	// The verdict comes from the report's recorded event timeline — the
	// exact artifact a BENCH consumer sees.
	var halvesDuringStep int
	preRate := 0.0
	var recoveredAt time.Time
	for _, ev := range rep.Events {
		if ev.Type != obs.EventController {
			continue
		}
		at := time.Unix(0, ev.TimeUnixNano)
		if ev.Labels["action"] == "halve" &&
			at.After(stepStart) && at.Before(stepEnd.Add(stepSlack)) {
			if halvesDuringStep == 0 {
				// The rate the controller held entering the storm.
				preRate = ev.Data["rate_before"]
			}
			halvesDuringStep++
		}
	}
	if halvesDuringStep == 0 {
		t.Fatalf("no halve decisions recorded during the step; %d events total", len(rep.Events))
	}
	if preRate <= 0 {
		t.Fatalf("first halve carries no pre-storm rate: %g", preRate)
	}
	target := 0.8 * preRate
	for _, ev := range rep.Events {
		if ev.Type != obs.EventController {
			continue
		}
		at := time.Unix(0, ev.TimeUnixNano)
		if at.After(stepEnd) && ev.Data["rate_after"] >= target {
			recoveredAt = at
			break
		}
	}
	t.Logf("pre-storm rate %.0f tokens/s; %d halves during the 1s step; recovery target %.0f",
		preRate, halvesDuringStep, target)
	if recoveredAt.IsZero() {
		t.Fatalf("event timeline never shows the batch rate recovering to %.0f (80%% of pre-storm %.0f)",
			target, preRate)
	}
	if rec := recoveredAt.Sub(stepEnd); rec > 5*time.Second {
		t.Fatalf("controller took %v to restore 80%% of the pre-storm batch rate (limit 5s)", rec)
	} else {
		t.Logf("restored >=80%% of pre-storm batch rate %v after step end", rec)
	}
}

// freshIDs serves each arrival under a bare ID that no earlier request
// used and only the runner knows (the variant's ID plus "#n"), so the
// engine's cache never answers one.
type freshIDs struct {
	eng *serve.Engine
	n   atomic.Int64
}

func (f *freshIDs) ServeEncoded(ctx context.Context, id string, _ core.Params) (serve.RawResponse, error) {
	return f.eng.ServeEncoded(ctx, id+"#"+strconv.FormatInt(f.n.Add(1), 10), nil)
}

func (f *freshIDs) Events() *obs.Events { return f.eng.Events() }
