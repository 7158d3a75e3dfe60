// Command bench is the repository's benchmark: one process that boots
// the real handler stacks (serve.Engine.Handler + sweep.Handler,
// router.Router.Handler over router.HTTPBackends) on 127.0.0.1:0
// listeners, drives one named workload closed-loop with its own
// generator, checks every reply against outputs computed through core,
// prints each metric by name with its unit, tears everything down and
// exits. See README.md for the workloads, the metrics and how they
// interact.
//
//	bench --workload wire-warm --seed 1 --seconds 15 --trace 0   end-to-end metrics
//	bench --workload wire-warm --seed 1 --seconds 15 --trace 1   per-layer metrics + spans
//	bench -compare old/ new/                                     apply the bounds to two sets of runs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the full record of one run, written by -json and read by
// -compare.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	resultLine
	// Problems lists every failed invariant; Correct is false when any
	// reply failed a check or Problems is not empty.
	Problems []string `json:"problems,omitempty"`
	// Slices holds the per-slice values behind ops_per_s, lat_p50_us and
	// cpu_us_per_op, which -compare uses as the spread of a single run.
	Slices map[string][]float64 `json:"slices,omitempty"`
	// SetupSeconds is every timed set-up of the run; setup_s is their
	// median. LatSamples is the window's latency sample count and LatP99us
	// its p99 (an end-to-end run prints it, unbounded, on the first line).
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	LatSamples   int       `json:"lat_samples,omitempty"`
	LatP99us     float64   `json:"lat_p99_us,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	jsonPath string
	spans    string
}

// An untraced run sets the workload up again and again (tearing down all
// but the last) until setupBudget of set-up time is spent, at least
// setupMin and at most setupMax times, so setup_s is the median of many
// draws: a set-up is milliseconds, and single draws of that size wander.
const (
	setupMin    = 5
	setupMax    = 25
	setupBudget = time.Second
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: engine-warm, wire-warm, wire-routed, wire-batch or sweep-cold")
	fs.Int64Var(&o.seed, "seed", 1, "seed for Zipf draws, frame composition and sweep-grid offsets")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, no wrappers installed; 1: per-layer metrics from a traced window and the layer ladder")
	fs.StringVar(&o.jsonPath, "json", "", "write the full result here")
	fs.StringVar(&o.spans, "spans", "", "write the traced window's spans here as NDJSON (--trace 1)")
	outDir := fs.String("out-dir", "", "directory for <workload>.trace<N>.json and <workload>.spans.ndjson when -json/-spans are not given")
	maxWall := fs.Duration("max-wall", 150*time.Second, "hard watchdog: exit 3 if the run is still going after this long")
	compare := fs.Bool("compare", false, "compare two sets of results: bench -compare OLD NEW (files, directories or comma-separated lists)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two arguments: OLD NEW")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: want --workload NAME --seed N --seconds S --trace 0|1")
		return 2
	}
	if *outDir != "" {
		if o.jsonPath == "" {
			o.jsonPath = filepath.Join(*outDir, fmt.Sprintf("%s.trace%d.json", o.workload, o.trace))
		}
		if o.spans == "" && o.trace == 1 {
			o.spans = filepath.Join(*outDir, o.workload+".spans.ndjson")
		}
	}

	// A wedge must not leave a process behind.
	watchdog := time.AfterFunc(*maxWall, func() {
		fmt.Fprintf(stderr, "bench: still running after %v, giving up\n", *maxWall)
		os.Exit(3)
	})
	defer watchdog.Stop()
	goroutines := runtime.NumGoroutine()

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if leaked := settle(goroutines); leaked > 0 {
		fmt.Fprintf(stderr, "bench: %d goroutines left running after teardown\n", leaked)
		return 4
	}
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "bench: check failed:", p)
	}
	if o.jsonPath != "" {
		buf, _ := json.MarshalIndent(res, "", "  ") // plain data always marshals
		if err := os.WriteFile(o.jsonPath, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d clients %d gomaxprocs %d lat_samples %d lat_p99_us %v\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Clients, res.GOMAXPROCS, res.LatSamples, res.LatP99us)
	specs := endToEnd
	if o.trace == 1 {
		specs = perLayer
	}
	for _, m := range specs {
		fmt.Fprintf(stdout, "%s %v %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	line, _ := json.Marshal(res.resultLine)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// settle waits for the goroutine count to come back to the start-of-run
// figure (plus slack for runtime helpers): coalescer flushers idle out
// after 50 ms and closed connections' loops unwind asynchronously. It
// returns how many are still over after five seconds.
func settle(base int) int {
	const slack = 2
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		over := runtime.NumGoroutine() - base - slack
		if over <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return over
		}
	}
}

func run(o options) (*result, error) {
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0)}
	res.Metrics = map[string]metricValue{}
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		err = runTraced(o, w, dur, res)
	} else {
		err = runUntraced(o, w, dur, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0 && len(res.Problems) == 0
	return res, nil
}

// ramp is an unmeasured stretch of the workload before timing, so
// connections, scoreboards and the collector are in their steady state.
func ramp(w workload, dur time.Duration) {
	runWindow(w, min(dur/10, time.Second), nil)
}

func (r *result) set(specs []metricSpec, name string, v float64) {
	for _, m := range specs {
		if m.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: m.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

func (r *result) absorb(w *window) {
	r.Attempted += w.attempted
	r.Failed += w.failed
	r.Problems = append(r.Problems, w.problems...)
}

// runUntraced is a --trace 0 run: set-up timed repeatedly, the last one
// primed over the wire, a ramp, then one window with no wrapper installed
// anywhere.
func runUntraced(o options, w workload, dur time.Duration, res *result) error {
	var spent time.Duration
	for i := 0; i < setupMax && (i < setupMin || spent < setupBudget); i++ {
		if i > 0 {
			if err := w.close(); err != nil {
				return err
			}
			w, _ = newWorkload(o.workload, o.seed) // the name was accepted once already
		}
		// Each set-up starts from a collected heap, so whether a collection
		// lands inside a few-millisecond set-up is not left to the garbage
		// of the one before.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			_ = w.close()
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		res.SetupSeconds = append(res.SetupSeconds, d.Seconds())
	}
	if err := w.prime(); err != nil {
		_ = w.close()
		return err
	}
	res.Clients = w.clients()
	ramp(w, dur)
	win := runWindow(w, dur, nil)
	res.absorb(win)
	res.LatSamples = len(win.pooled)
	res.Slices = map[string][]float64{mOps: win.sliceOpsPerS(), mP50: win.sliceP50us(), mCPU: win.sliceCPUus()}
	res.set(endToEnd, mOps, win.opsPerS())
	res.set(endToEnd, mP50, win.p50us())
	res.LatP99us = win.p99us()
	res.set(endToEnd, mCPU, win.cpuUsPerOp())
	res.set(endToEnd, mSetup, median(res.SetupSeconds))
	// The generator's sample buffers go before the heap is read: what is
	// left is the stacks, their caches and the clients' fixed buffers.
	win.sliceLat, win.pooled = nil, nil
	res.set(endToEnd, mHeap, liveHeapMB())
	return w.close()
}

// runTraced is a --trace 1 run: the stacks are built with the span
// wrappers installed; an untraced window (wrappers passing through)
// gives the reference throughput, a traced window gives the spans and
// the layers' counter deltas, and the ladder fills the remaining half of
// the measured time.
func runTraced(o options, w workload, dur time.Duration, res *result) error {
	tr := newTracer()
	err := w.setup(tr)
	if err == nil {
		err = w.prime()
	}
	if err != nil {
		_ = w.close()
		return fmt.Errorf("set-up: %w", err)
	}
	res.Clients = w.clients()
	ramp(w, dur)
	plain := runWindow(w, dur/5, nil)
	res.absorb(plain)
	traced := runWindow(w, dur*3/10, tr)
	res.absorb(traced)
	res.LatSamples, res.LatP99us = len(plain.pooled), plain.p99us()
	if err := w.close(); err != nil {
		return err
	}

	set := func(name string, v float64) { res.set(perLayer, name, v) }
	set(mAllocs, plain.allocsPerOp())
	set(mFailed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	set(mP99, res.LatP99us)

	d := traced.delta
	set("admit.submitted", float64(d.submitted))
	set("admit.sheds", float64(d.admitSheds))
	set("serve.requests", float64(d.requests))
	set("serve.cache_hits", float64(d.hits))
	set("serve.deduped", float64(d.deduped))
	set("serve.executions", float64(d.executions))
	set("serve.sheds", float64(d.sheds))
	set("serve.hit_ratio", d.hitRatio())
	set("serve.cache_evicted", float64(d.evicted))
	set("serve.cache_bytes", float64(d.cacheBytes))
	set("router.requests", float64(d.rtRequests))
	set("router.failovers", float64(d.rtFailovers))
	set("router.exhausted", float64(d.rtExhausted))
	set("router.hedges", float64(d.rtHedges))
	set("router.hedge_wins", float64(d.rtHedgeWins))
	set("router.flushes_interactive", d.flushes["interactive"])
	set("router.flushes_window", d.flushes["window"])
	set("router.flushes_full", d.flushes["full"])
	set("router.flushes_direct", d.flushes["direct"])
	set("router.batch_size_mean", d.batchSizeMean())

	self, total := tr.selfTimes()
	ops := float64(max(traced.attempted-traced.failed, 1))
	perOp := func(ns float64) float64 { return ns / 1e3 / ops }
	set("trace.ops_per_s", traced.opsPerS())
	set("trace.client_mean_us", perOp(total))
	set("trace.client_self_us", perOp(self[spClient]))
	set("trace.frontend_self_us", perOp(self[spFrontend]))
	set("trace.hop_self_us", perOp(self[spBackend]))
	set("trace.replica_self_us", perOp(self[spReplica]))
	set("trace.core_run_us", perOp(self[spCoreRun]))
	set("trace.core_run_busy_us", perOp(float64(tr.dur[spCoreRun].Load())))
	var spans int64
	for k := 0; k < spLevels; k++ {
		spans += tr.cnt[k].Load()
	}
	set("trace.spans", float64(spans))
	if base := plain.opsPerS(); base > 0 {
		set("trace.overhead_share", 1-traced.opsPerS()/base)
	} else {
		set("trace.overhead_share", 0) // a window too short to fill a slice (the smoke test)
	}
	if o.spans != "" {
		if err := tr.writeSpans(o.spans); err != nil {
			return err
		}
	}

	ladder, err := runLadder(dur/2, o.seed)
	if err != nil {
		return err
	}
	for name, v := range ladder {
		set(name, v)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
	}
	return nil
}
