package load

// Soak/chaos mode: a replicated serving cluster under live closed-loop
// load while injected faults (replica kills, hard hangs, error bursts —
// the router.FaultBackend doubles) cycle through the replicas. The
// harness's verdict is not a latency number but three invariants that
// must survive arbitrary fault interleavings:
//
//   - the per-class conservation law on every replica engine —
//     hits + deduped + sheds + executions == requests — at quiescence;
//   - zero goroutine leak: after teardown the process returns to within
//     a small budget of its starting goroutine count;
//   - bounded heap growth across the soak.
//
// `arch21 loadtest -chaos` runs this with a nonzero exit on any failed
// check; CI's chaos-smoke job runs it under -race.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ChaosOptions configures a soak run. The zero value is a usable 30s
// default soak.
type ChaosOptions struct {
	// Duration is the soak length (default 30s).
	Duration time.Duration
	// Replicas is the engine-replica count behind the router (default 3).
	Replicas int
	// Clients is the closed-loop client count, split evenly between the
	// interactive and batch classes (default 8).
	Clients int
	// Workers is each replica engine's worker-pool size (default 4).
	Workers int
	// Seed drives client key draws and the fault schedule.
	Seed uint64
	// HeapBudget bounds end-of-soak heap growth in bytes (default 256 MiB).
	HeapBudget int64
	// EventsSink, when set, receives the router's control-plane events
	// (ejections, re-admissions) as NDJSON — the chaos artifact's event
	// log.
	EventsSink io.Writer
	// RunnerWith overrides replica execution (default: the core
	// registry); injectable for tests.
	RunnerWith func(ctx context.Context, id string, p core.Params) (core.Result, error)
	// Logf, when set, receives progress lines (fault injections, phase
	// transitions).
	Logf func(format string, args ...interface{})
}

// ChaosCheck is one invariant's verdict.
type ChaosCheck struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	Detail string `json:"detail"`
}

// ChaosResult is the soak's machine-readable outcome — the chaos
// artifact CI uploads next to the event log.
type ChaosResult struct {
	DurationSeconds float64 `json:"duration_seconds"`
	Replicas        int     `json:"replicas"`
	Clients         int     `json:"clients"`
	Seed            uint64  `json:"seed"`
	// Requests counts issued requests; Errors those that failed (sheds,
	// injected faults that exhausted failover, deadline expiries).
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// Kills, Hangs, Bursts count injected faults by kind.
	Kills  int `json:"kills"`
	Hangs  int `json:"hangs"`
	Bursts int `json:"bursts"`
	// GoroutinesStart/End bracket the run; the leak check allows End to
	// exceed Start by at most GoroutineBudget.
	GoroutinesStart int `json:"goroutines_start"`
	GoroutinesEnd   int `json:"goroutines_end"`
	GoroutineBudget int `json:"goroutine_budget"`
	// HeapStartBytes/EndBytes bracket live heap (post-GC).
	HeapStartBytes uint64 `json:"heap_start_bytes"`
	HeapEndBytes   uint64 `json:"heap_end_bytes"`
	// Checks holds every invariant verdict.
	Checks []ChaosCheck `json:"checks"`
}

// Passed reports whether every invariant held.
func (r ChaosResult) Passed() bool {
	for _, c := range r.Checks {
		if !c.Passed {
			return false
		}
	}
	return len(r.Checks) > 0
}

// RunChaos runs one soak. An error means the harness could not be set
// up; invariant violations are reported in the result's Checks, not as
// errors.
func RunChaos(opt ChaosOptions) (ChaosResult, error) {
	duration := opt.Duration
	if duration <= 0 {
		duration = 30 * time.Second
	}
	replicas := opt.Replicas
	if replicas <= 0 {
		replicas = 3
	}
	clients := opt.Clients
	if clients <= 0 {
		clients = 8
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 4
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	heapBudget := opt.HeapBudget
	if heapBudget <= 0 {
		heapBudget = 256 << 20
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	sc, ok := ScenarioByName("mixed-zipf")
	if !ok || len(sc.Variants) == 0 {
		return ChaosResult{}, fmt.Errorf("load: chaos needs the mixed-zipf catalog")
	}
	variants := sc.Variants

	// The leak bracket starts before any harness allocation, after a GC
	// so it measures structure, not garbage.
	runtime.GC()
	var msStart runtime.MemStats
	runtime.ReadMemStats(&msStart)
	res := ChaosResult{
		DurationSeconds: duration.Seconds(),
		Replicas:        replicas,
		Clients:         clients,
		Seed:            seed,
		GoroutinesStart: runtime.NumGoroutine(),
		GoroutineBudget: 2 * clients,
		HeapStartBytes:  msStart.HeapAlloc,
	}

	engines := make([]*serve.Engine, replicas)
	faults := make([]*router.FaultBackend, replicas)
	backends := make([]router.Backend, replicas)
	for i := range engines {
		engines[i] = serve.NewEngine(serve.Config{
			Shards:     8,
			Workers:    workers,
			RunnerWith: opt.RunnerWith,
		})
		faults[i] = router.NewFaultBackend(
			router.NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i)))
		backends[i] = faults[i]
	}
	closeEngines := func() {
		for _, e := range engines {
			if e != nil {
				e.Close()
			}
		}
	}
	rt, err := router.New(backends, router.Config{
		// A hung replica must cost an attempt timeout, not the soak: the
		// router abandons slow attempts quickly, fails over, and ejects
		// after two strikes; probes re-admit revived replicas fast.
		Timeout:       500 * time.Millisecond,
		FailThreshold: 2,
		ProbeAfter:    250 * time.Millisecond,
	})
	if err != nil {
		closeEngines()
		return ChaosResult{}, fmt.Errorf("load: chaos cluster: %w", err)
	}
	if opt.EventsSink != nil {
		rt.Events().SetSink(opt.EventsSink)
	}

	until := time.Now().Add(duration)
	ctx, cancel := context.WithDeadline(context.Background(), until)
	defer cancel()

	// Live load through the router's encoded path: half the clients
	// interactive, half batch, each drawing uniformly from the mixed
	// catalog with occasional tight deadlines so deadline sheds and
	// mid-flight cancellations are part of the mix.
	var wg sync.WaitGroup
	var requests, errs atomic.Int64
	runClients(&wg, clients, until, func(c int) func() bool {
		rng := stats.NewRNG(seed + uint64(c)*1000003 + 7)
		cctx := admit.WithClass(ctx, admit.Classes()[c%2]) // even clients interactive, odd batch
		return func() bool {
			v := variants[rng.Intn(len(variants))]
			rctx, rcancel := cctx, context.CancelFunc(func() {})
			if rng.Intn(4) == 0 {
				rctx, rcancel = context.WithTimeout(cctx, time.Duration(1+rng.Intn(20))*time.Millisecond)
			}
			_, err := rt.ServeEncoded(rctx, v.ID, v.Params)
			rcancel()
			requests.Add(1)
			if err != nil {
				errs.Add(1)
			}
			return err == nil
		}
	})

	// The fault schedule: every tick, one replica takes one fault —
	// kill+revive, hang+release, or an error burst — chosen round-robin
	// over kinds with the replica drawn from the seeded RNG, so a soak is
	// reproducible per seed.
	var kills, hangs, bursts int
	injectorDone := make(chan struct{})
	go func() {
		defer close(injectorDone)
		rng := stats.NewRNG(seed + 555)
		tick := duration / 10
		if tick < 50*time.Millisecond {
			tick = 50 * time.Millisecond
		}
		for i := 0; ; i++ {
			select {
			case <-ctx.Done():
				return
			case <-time.After(tick):
			}
			fb := faults[rng.Intn(len(faults))]
			switch i % 3 {
			case 0:
				kills++
				logf("chaos: kill %s", fb.Name())
				fb.Kill()
				select {
				case <-ctx.Done():
				case <-time.After(tick / 2):
				}
				fb.Revive()
			case 1:
				hangs++
				logf("chaos: hang %s", fb.Name())
				fb.Hang()
				select {
				case <-ctx.Done():
				case <-time.After(tick / 2):
				}
				fb.Release()
			case 2:
				bursts++
				logf("chaos: error burst on %s", fb.Name())
				fb.ErrorBurst(25)
			}
		}
	}()

	<-injectorDone
	wg.Wait()
	// Heal everything so in-flight work can quiesce.
	for _, fb := range faults {
		fb.Revive()
		fb.Release()
	}
	res.Requests = requests.Load()
	res.Errors = errs.Load()
	res.Kills, res.Hangs, res.Bursts = kills, hangs, bursts
	logf("chaos: soak done: %d requests (%d errors), %d kills, %d hangs, %d bursts",
		res.Requests, res.Errors, kills, hangs, bursts)

	res.Checks = append(res.Checks, ChaosCheck{
		Name:   "load flowed",
		Passed: res.Requests > 0 && res.Requests > res.Errors,
		Detail: fmt.Sprintf("%d requests, %d errors", res.Requests, res.Errors),
	})

	// Conservation at quiescence: abandoned router attempts may still be
	// draining inside replicas, so poll until the books balance on every
	// engine and class (or the grace period expires with the imbalance
	// named).
	conserved, detail := false, ""
	for grace := time.Now().Add(10 * time.Second); time.Now().Before(grace); {
		conserved, detail = conservationHolds(engines)
		if conserved {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	res.Checks = append(res.Checks, ChaosCheck{
		Name: "per-class conservation", Passed: conserved, Detail: detail,
	})

	// Teardown, then the leak bracket: worker pools, scheduler loops, and
	// abandoned attempt goroutines must all unwind. The settle loop gives
	// stragglers time; the budget absorbs runtime-owned goroutines (GC
	// workers, timer threads) that legitimately appear under load.
	closeEngines()
	limit := res.GoroutinesStart + res.GoroutineBudget
	res.GoroutinesEnd = runtime.NumGoroutine()
	for grace := time.Now().Add(10 * time.Second); time.Now().Before(grace) && res.GoroutinesEnd > limit; {
		time.Sleep(100 * time.Millisecond)
		res.GoroutinesEnd = runtime.NumGoroutine()
	}
	res.Checks = append(res.Checks, ChaosCheck{
		Name:   "goroutine leak",
		Passed: res.GoroutinesEnd <= limit,
		Detail: fmt.Sprintf("start %d, end %d, budget +%d",
			res.GoroutinesStart, res.GoroutinesEnd, res.GoroutineBudget),
	})

	runtime.GC()
	var msEnd runtime.MemStats
	runtime.ReadMemStats(&msEnd)
	res.HeapEndBytes = msEnd.HeapAlloc
	growth := int64(res.HeapEndBytes) - int64(res.HeapStartBytes)
	res.Checks = append(res.Checks, ChaosCheck{
		Name:   "bounded heap growth",
		Passed: growth <= heapBudget,
		Detail: fmt.Sprintf("start %d B, end %d B, growth %d B (budget %d B)",
			res.HeapStartBytes, res.HeapEndBytes, growth, heapBudget),
	})
	return res, nil
}

// conservationHolds checks serve.ClassMetrics.Balance for every engine
// and class, returning a book summary either way.
func conservationHolds(engines []*serve.Engine) (bool, string) {
	ok := true
	detail := ""
	for i, e := range engines {
		m := e.Metrics()
		for class, cm := range m.Classes {
			if err := cm.Balance(); err != nil {
				ok = false
				detail += fmt.Sprintf("engine[%d] %s: %v; ", i, class, err)
			}
		}
	}
	if ok {
		detail = fmt.Sprintf("books balanced on %d engines x %d classes",
			len(engines), len(admit.Classes()))
	}
	return ok, detail
}
