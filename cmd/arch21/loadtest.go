package main

// arch21 loadtest: the CLI face of internal/load. It runs one catalog
// scenario against the in-process engine (or a live arch21d via -http, or
// an in-process replica set via -replicas) and emits the versioned JSON
// report, or runs the chaos soak (-chaos). GOMAXPROCS is set, as for any
// Go program, by the environment variable.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/admit"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
)

func cmdLoadtest(args []string) {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	scenario := fs.String("scenario", "", "catalog scenario to run (see -list)")
	list := fs.Bool("list", false, "list catalog scenarios and exit")
	duration := fs.Duration("duration", 0, "measured window (default 5s)")
	clients := fs.Int("clients", 0, "closed-loop concurrency (default: scenario)")
	rate := fs.Float64("rate", 0, "open-loop arrival rate req/s (default: scenario)")
	httpAddr := fs.String("http", "", "load a live arch21d at this address instead of the in-process engine")
	replicas := fs.Int("replicas", 0, "front N in-process engine replicas with a consistent-hash router and load that (0 = single engine)")
	degrade := fs.Duration("degrade", 0, "with -replicas: inject this much service latency into replica 0 — the degraded-replica scenario's straggler the hedging scoreboard must route around (0 = all healthy)")
	jsonOut := fs.String("json", "", "write the report JSON to this file")
	class := fs.String("class", "", "force the class of the scenario's primary request stream: interactive or batch (default: the catalog's per-variant classes)")
	seed := fs.Uint64("seed", 0, "override the scenario seed")
	workers := fs.Int("workers", 4, "in-process engine worker-pool size")
	lcSLO := fs.Duration("lc-slo", 0, "attach the QoS feedback controller to the in-process engine at this interactive p99 SLO; its decisions land in the report's events timeline (0 = off)")
	chaos := fs.Bool("chaos", false, "run a chaos soak instead of a catalog scenario: replica kills, hangs, and error bursts under live load, asserting conservation, goroutine, and heap invariants (exit 1 on any violation)")
	soakDuration := fs.Duration("soak-duration", 30*time.Second, "with -chaos: the soak length")
	eventsLog := fs.String("events-log", "", "with -chaos: append the router's control-plane events (ejections, re-admissions) to this file as NDJSON")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr,
			"usage: arch21 loadtest -scenario <name> [-duration 5s] [-clients N] [-rate R] [-http addr] [-json out.json]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	if *list {
		for _, sc := range load.Scenarios() {
			fmt.Printf("%-12s %s-loop, %d variants  %s\n", sc.Name, sc.Mode, sc.CatalogSize(), sc.Doc)
		}
		return
	}
	if *chaos {
		runChaos(*soakDuration, *replicas, *clients, *workers, *seed, *eventsLog, *jsonOut)
		return
	}
	if *scenario == "" {
		fs.Usage()
		os.Exit(2)
	}
	sc, ok := load.ScenarioByName(*scenario)
	if !ok {
		fatalf("unknown scenario %q (try 'arch21 loadtest -list')", *scenario)
	}

	if *httpAddr != "" && *replicas > 0 {
		fatalf("-http and -replicas are mutually exclusive (a live daemon vs an in-process replica set)")
	}
	if *degrade > 0 && *replicas == 0 {
		fatalf("-degrade needs -replicas: the straggler is one replica of an in-process cluster")
	}
	var tgt load.Target
	switch {
	case *httpAddr != "":
		tgt = load.NewHTTPTarget(*httpAddr)
	case *replicas > 0:
		// An in-process replica set: N engines behind the consistent-hash
		// router, so the BENCH harness measures routed serving (placement,
		// health accounting, per-replica caches) like any single engine.
		engines := make([]*serve.Engine, *replicas)
		backends := make([]router.Backend, *replicas)
		for i := range engines {
			engines[i] = serve.NewEngine(serve.Config{Workers: *workers})
			defer engines[i].Close()
			backends[i] = router.NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i))
		}
		if *degrade > 0 {
			// One slow replica, injected through the same fault harness the
			// chaos soak uses: it still answers correctly and passes health
			// checks, so only the latency scoreboard (hedging, demotion) can
			// route around it.
			fb := router.NewFaultBackend(backends[0])
			fb.Degrade(*degrade)
			backends[0] = fb
		}
		rt, err := router.New(backends, router.Config{})
		if err != nil {
			fatalf("%v", err)
		}
		tgt = load.NewServerTarget(rt, "router", func() {
			for _, eng := range engines {
				eng.Reset()
			}
		})
	default:
		eng := serve.NewEngine(serve.Config{Workers: *workers})
		defer eng.Close()
		if *lcSLO > 0 {
			// The same feedback loop arch21d -lc-slo runs, attached to the
			// measured engine: its halve/reclaim decisions are recorded into
			// the engine's event ring, which load.Run captures into the
			// report — the controller-decision timeline the colocation
			// artifact carries.
			sup := &qos.Supervisor{
				Ctrl:     qos.NewRateController(lcSLO.Seconds(), 256, 0.1, 1e6),
				Window:   func() stats.LatencySnapshot { return eng.TakeClassWindow(admit.Interactive) },
				Apply:    eng.SetBatchRate,
				Events:   eng.Events(),
				Interval: 100 * time.Millisecond,
			}
			eng.SetBatchRate(sup.Ctrl.Rate())
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go sup.Run(ctx)
		}
		tgt = load.NewServerTarget(eng, "engine", eng.Reset)
	}

	opts := load.Options{
		Duration: *duration,
		Clients:  *clients,
		Rate:     *rate,
		Seed:     *seed,
	}
	if *class != "" {
		c, err := admit.ParseClass(*class)
		if err != nil {
			fatalf("%v", err)
		}
		opts.Class = &c
	}
	rep, err := load.Run(tgt, sc, opts)
	if err != nil {
		fatalf("%v", err)
	}
	rep.Git = gitDescribe()
	if err := rep.Validate(); err != nil {
		fatalf("measured report is not schema-valid: %v", err)
	}
	if sc.Reset && !rep.Config.Reset {
		fmt.Fprintf(os.Stderr,
			"arch21: note: scenario %s wants a cold cache but the %s target cannot reset — measuring as-is (report records reset=false)\n",
			sc.Name, rep.Config.Target)
	}

	m := rep.Metrics
	fmt.Printf("scenario %s (%s loop, target %s): %d requests in %.2fs\n",
		rep.Scenario, rep.Config.Mode, rep.Config.Target, m.Requests, m.DurationSeconds)
	fmt.Printf("  throughput  %.1f req/s   errors %d (%.2f%%)\n",
		m.ThroughputRPS, m.Errors, m.ErrorRate*100)
	fmt.Printf("  latency     p50 %s  p95 %s  p99 %s  p999 %s  max %s\n",
		fmtLatency(m.Latency.P50), fmtLatency(m.Latency.P95),
		fmtLatency(m.Latency.P99), fmtLatency(m.Latency.P999), fmtLatency(m.Latency.Max))
	fmt.Printf("  cache       hit ratio %.3f  dedup ratio %.3f\n",
		m.CacheHitRatio, m.DedupRatio)
	// A colocation run's headline is the per-class split.
	for _, cls := range []string{"interactive", "batch"} {
		cm, ok := m.PerClass[cls]
		if !ok || len(m.PerClass) < 2 {
			continue
		}
		fmt.Printf("  [%s] %d req  %.1f req/s  p50 %s  p99 %s  errors %d\n",
			cls, cm.Requests, cm.ThroughputRPS,
			fmtLatency(cm.Latency.P50), fmtLatency(cm.Latency.P99), cm.Errors)
	}
	if n := len(rep.Events); n > 0 {
		byType := map[string]int{}
		for _, ev := range rep.Events {
			byType[ev.Type]++
		}
		fmt.Printf("  events      %d captured (", n)
		first := true
		for _, t := range obs.EventTypes() {
			if byType[t] == 0 {
				continue
			}
			if !first {
				fmt.Print(", ")
			}
			fmt.Printf("%s %d", t, byType[t])
			first = false
		}
		fmt.Println(")")
	}

	if *jsonOut != "" {
		if err := load.WriteFile(*jsonOut, rep); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}

// runChaos runs the soak/chaos mode and exits nonzero on any failed
// invariant check.
func runChaos(duration time.Duration, replicas, clients, workers int, seed uint64, eventsLog, jsonOut string) {
	opt := load.ChaosOptions{
		Duration: duration,
		Seed:     seed,
		Logf: func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, "arch21: "+format+"\n", args...)
		},
	}
	if replicas > 0 {
		opt.Replicas = replicas
	}
	if clients > 0 {
		opt.Clients = clients
	}
	if workers != 4 { // 4 is the flag default; 0 keeps the chaos default
		opt.Workers = workers
	}
	if eventsLog != "" {
		f, err := os.OpenFile(eventsLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		opt.EventsSink = f
	}
	res, err := load.RunChaos(opt)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("chaos soak: %.0fs, %d replicas, %d clients: %d requests (%d errors), %d kills, %d hangs, %d bursts\n",
		res.DurationSeconds, res.Replicas, res.Clients,
		res.Requests, res.Errors, res.Kills, res.Hangs, res.Bursts)
	failed := 0
	for _, c := range res.Checks {
		status := "ok"
		if !c.Passed {
			status = "FAILED"
			failed++
		}
		fmt.Printf("  %-24s %-6s %s\n", c.Name, status, c.Detail)
	}
	if jsonOut != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	if !res.Passed() {
		if len(res.Checks) == 0 {
			fmt.Fprintln(os.Stderr, "arch21: chaos: no invariant checks ran")
		} else {
			fmt.Fprintf(os.Stderr, "arch21: chaos: %d invariant check(s) failed\n", failed)
		}
		os.Exit(1)
	}
}

// fmtLatency renders a latency in seconds human-readably.
func fmtLatency(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// gitDescribe stamps reports with the working tree's `git describe
// --always --dirty` (empty when git or the repo is unavailable).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
