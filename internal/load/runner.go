package load

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Options override a scenario's pacing defaults at run time (CLI flags).
// Zero values defer to the scenario, then to package defaults.
type Options struct {
	// Duration is the measured window (default 5s).
	Duration time.Duration
	// Clients overrides closed-loop concurrency.
	Clients int
	// Rate overrides the open-loop arrival rate (req/s).
	Rate float64
	// Seed overrides the scenario seed.
	Seed uint64
	// Class overrides the class of the scenario's primary request stream
	// (the batch storm of a colocation scenario keeps its own class).
	// Nil leaves each variant's declared class alone.
	Class *admit.Class
}

const (
	defaultDuration = 5 * time.Second
	defaultClients  = 4
	defaultRate     = 200
	// maxOpenRequests caps an open-loop trace so a fat-fingered rate
	// cannot pre-materialize an unbounded trace.
	maxOpenRequests = 200000
	// sampleCap is the latency reservoir capacity: large enough that
	// short CI runs stay exact (percentiles are sampled beyond it).
	sampleCap = 1 << 15
)

// clientBackoff is how long a closed-loop client waits after a failed
// request, so a fail-fast shed storm measures the target's refusal
// policy instead of a retry busy-loop.
const clientBackoff = 200 * time.Microsecond

// runClients starts n closed-loop clients on wg — the one client loop
// of this package. Client c issues requests through the function
// issue(c) returns, think-time free, until the deadline passes, and
// backs off clientBackoff after a request that failed.
func runClients(wg *sync.WaitGroup, n int, until time.Time, issue func(c int) func() bool) {
	for c := 0; c < n; c++ {
		do := issue(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				if !do() {
					time.Sleep(clientBackoff)
				}
			}
		}()
	}
}

// classRec accumulates one class's (or one tenant's, or the whole
// run's) measurements.
type classRec struct {
	rec      *stats.LatencyRecorder
	requests atomic.Int64
	errs     atomic.Int64
	hits     atomic.Int64
	shared   atomic.Int64
}

// book records one request's outcome. A failed request counts toward
// the error rate but not the latency distribution.
func (cr *classRec) book(out Outcome, err error, lat float64) {
	cr.requests.Add(1)
	if err != nil {
		cr.errs.Add(1)
		return
	}
	cr.rec.Observe(lat)
	if out.CacheHit {
		cr.hits.Add(1)
	}
	if out.Shared {
		cr.shared.Add(1)
	}
}

// foldRec folds one record's books into report metrics over the
// achieved window.
func foldRec(cr *classRec, elapsed time.Duration) ClassMetrics {
	r := cr.requests.Load()
	e := cr.errs.Load()
	ok := r - e
	snap := cr.rec.Snapshot()
	cm := ClassMetrics{
		Requests:        r,
		Errors:          e,
		DurationSeconds: elapsed.Seconds(),
		Latency: Latency{
			Mean: snap.Mean, P50: snap.P50, P95: snap.P95,
			P99: snap.P99, P999: snap.P999, Min: snap.Min, Max: snap.Max,
		},
	}
	if elapsed > 0 {
		cm.ThroughputRPS = float64(ok) / elapsed.Seconds()
	}
	if r > 0 {
		cm.ErrorRate = float64(e) / float64(r)
	}
	if ok > 0 {
		cm.CacheHitRatio = float64(cr.hits.Load()) / float64(ok)
		cm.DedupRatio = float64(cr.shared.Load()) / float64(ok)
	}
	return cm
}

// Run executes one scenario against the target and returns the measured
// report (Git is left for the caller to stamp). Warmup requests run
// before the measured window and are excluded from every metric. The
// primary stream follows the scenario's Mode, and every Group's clients
// run for the same window; the report's PerClass and PerTenant sections
// split every metric by class and by tenant, while the top-level Metrics
// stay the cross-class aggregate. A Schedule drives open-loop arrivals
// through its ramps and steps instead of a constant rate.
func Run(tgt Target, sc Scenario, opt Options) (Report, error) {
	if len(sc.Variants) == 0 && len(sc.Groups) == 0 {
		return Report{}, fmt.Errorf("load: scenario %q has no variants", sc.Name)
	}
	if sc.Mode != ClosedLoop && sc.Mode != OpenLoop {
		return Report{}, fmt.Errorf("load: scenario %q has unknown mode %v", sc.Name, sc.Mode)
	}
	if sc.Schedule != nil {
		if sc.Mode != OpenLoop {
			return Report{}, fmt.Errorf("load: scenario %q: a rate schedule needs open-loop pacing", sc.Name)
		}
		if err := sc.Schedule.Validate(); err != nil {
			return Report{}, fmt.Errorf("load: scenario %q: bad schedule: %v", sc.Name, err)
		}
	}
	var tenants []string
	for _, g := range sc.Groups {
		if len(g.Variants) == 0 {
			return Report{}, fmt.Errorf("load: scenario %q: every group needs variants", sc.Name)
		}
		if slices.Contains(tenants, g.Tenant) {
			return Report{}, fmt.Errorf("load: scenario %q: duplicate tenant %q", sc.Name, g.Tenant)
		}
		if g.Tenant != "" {
			tenants = append(tenants, g.Tenant)
		}
	}
	// The measured window: an explicit -duration wins (a schedule is
	// stretched or compressed to fit it); otherwise a schedule runs its
	// natural span, and everything else gets the package default.
	duration := opt.Duration
	sched := workload.RateSchedule{}
	if sc.Schedule != nil {
		sched = *sc.Schedule
		if duration > 0 {
			sched = sched.ScaledTo(duration.Seconds())
		} else {
			duration = time.Duration(sched.Duration() * float64(time.Second))
		}
	}
	if duration <= 0 {
		duration = defaultDuration
	}
	clients := opt.Clients
	if clients <= 0 {
		clients = sc.Clients
	}
	if clients <= 0 {
		clients = defaultClients
	}
	if len(sc.Variants) == 0 {
		clients = 0 // the groups carry the whole scenario
	}
	rate := opt.Rate
	if rate <= 0 {
		rate = sc.Rate
	}
	if rate <= 0 {
		rate = defaultRate
	}
	seed := opt.Seed
	if seed == 0 {
		seed = sc.Seed
	}
	if seed == 0 {
		seed = 1
	}
	if opt.Class != nil {
		forced := make([]Variant, len(sc.Variants))
		copy(forced, sc.Variants)
		for i := range forced {
			forced[i].Class = *opt.Class
		}
		sc.Variants = forced
	}

	// Only an in-process target resets its cache or lends its server's
	// event ring. A reset that cannot be applied (an HTTP target, a nil
	// hook) is recorded as such, so a "cold" artifact measured against a
	// warm daemon is distinguishable from a genuinely cold run.
	st, _ := tgt.(*ServerTarget)
	resetApplied := sc.Reset && st != nil && st.reset != nil
	if resetApplied {
		st.reset()
	}
	// Warmup touches the primary variants and the tenant groups, each
	// request under its tenant identity (an engine keeping per-tenant
	// books must not see warmup as anonymous traffic). Unnamed groups
	// stay cold.
	if sc.Warm {
		warm := []Group{{Variants: sc.Variants}}
		for _, g := range sc.Groups {
			if g.Tenant != "" {
				warm = append(warm, g)
			}
		}
		for _, g := range warm {
			for _, v := range g.Variants {
				if _, err := tgt.Do(g.stamp(v)); err != nil {
					return Report{}, fmt.Errorf("load: warmup %s: %w", v, err)
				}
			}
		}
	}

	recs := make(map[admit.Class]*classRec, 2)
	for i, c := range admit.Classes() {
		recs[c] = &classRec{rec: stats.NewLatencyRecorder(sampleCap, seed+uint64(i))}
	}
	// The map is fully populated before any client starts and only read
	// afterwards.
	tenantRecs := make(map[string]*classRec, len(tenants))
	for i, name := range tenants {
		tenantRecs[name] = &classRec{rec: stats.NewLatencyRecorder(sampleCap, seed+200+uint64(i))}
	}
	all := &classRec{rec: stats.NewLatencyRecorder(sampleCap, seed+100)}

	// Capture the target's control-plane event timeline over the measured
	// window: everything recorded after this cursor lands in the report
	// (controller decisions, sheds, ejections). Warmup noise is excluded
	// because the cursor is taken after warmup.
	var evRing *obs.Events
	var evSince uint64
	if st != nil {
		if evRing = st.srv.Events(); evRing != nil {
			evSince = evRing.Total()
		}
	}

	// measure issues one request, timing it from started (the scheduled
	// arrival in open loop, the send in closed loop) into the run's,
	// the variant's class's and its tenant's books.
	measure := func(v Variant, started time.Time) bool {
		out, err := tgt.Do(v)
		lat := time.Since(started).Seconds()
		for _, cr := range [...]*classRec{all, recs[v.Class], tenantRecs[v.Tenant]} {
			if cr != nil {
				cr.book(out, err, lat)
			}
		}
		return err == nil
	}

	// Bracket the measured window with allocator snapshots: the Mallocs
	// delta divided by requests is the run's allocs-per-request figure.
	// The bracket excludes warmup (above) but includes the generator's
	// own per-request overhead: the figure covers the whole measured
	// loop, which is exactly what throughput runs on.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	t0 := time.Now()
	// Closed-loop clients: the primary stream's (closed loop only) and
	// every group's. Skewed groups give each client its own Zipf stream
	// (deterministic per seed, group and client); skew 0 round-robins a
	// counter the group's clients share, so every variant is touched in
	// order.
	groups := sc.Groups
	if sc.Mode == ClosedLoop && len(sc.Variants) > 0 {
		groups = append([]Group{{Variants: sc.Variants, Skew: sc.Skew, Clients: clients}}, groups...)
	}
	var wg sync.WaitGroup
	for gi, g := range groups {
		n := g.Clients
		if n <= 0 {
			n = defaultClients
		}
		next := new(atomic.Int64)
		runClients(&wg, n, t0.Add(duration), func(c int) func() bool {
			var z *stats.Zipf
			rng := stats.NewRNG(seed + uint64(gi)*2000003 + uint64(c)*1000003 + 1)
			if g.Skew > 0 && len(g.Variants) > 1 {
				z = stats.NewZipf(len(g.Variants), g.Skew)
			}
			return func() bool {
				var i int
				if z != nil {
					i = z.Rank(rng) - 1
				} else {
					i = int((next.Add(1) - 1) % int64(len(g.Variants)))
				}
				return measure(g.stamp(g.Variants[i]), time.Now())
			}
		})
	}

	if sc.Mode == OpenLoop && len(sc.Variants) > 0 {
		n := maxOpenRequests
		if sc.Schedule == nil {
			n = int(rate * duration.Seconds())
			if n < 1 {
				n = 1
			}
			if n > maxOpenRequests {
				n = maxOpenRequests
			}
		}
		// Service demand is the target's to determine, so only arrivals
		// and keys are replayed. Skew 0 keeps the same round-robin
		// contract as closed loop: Poisson arrivals, but variants cycle in
		// order so a grid catalog gets full coverage.
		rng := stats.NewRNG(seed)
		var trace workload.RequestTrace
		var idx []int
		if sc.Schedule != nil {
			trace = workload.ScheduledZipfTrace(sched, n, len(sc.Variants), sc.Skew, sc.Churn, rng)
			idx = trace.Assignments(len(sc.Variants))
		} else if sc.Skew > 0 {
			trace = workload.ZipfTrace(n, rate, len(sc.Variants), sc.Skew, rng)
			idx = trace.Assignments(len(sc.Variants))
		} else {
			trace = workload.PoissonTrace(n, rate, rng)
			idx = make([]int, len(trace))
			for i := range idx {
				idx[i] = i % len(sc.Variants)
			}
		}
		for i, rq := range trace {
			due := t0.Add(time.Duration(rq.Arrival * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			v := sc.Variants[idx[i]]
			wg.Add(1)
			go func() {
				defer wg.Done()
				measure(v, due)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(t0)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	perClass := make(map[string]ClassMetrics, len(recs))
	for _, c := range admit.Classes() {
		if cr := recs[c]; cr.requests.Load() > 0 {
			perClass[c.String()] = foldRec(cr, elapsed)
		}
	}
	// Per-tenant books fold the same way; fairness is Jain's index over
	// each tenant's success ratio (successful/issued) — demand-
	// normalized, so a 10:1 offered-load skew served without
	// discrimination still scores ~1, while a starved tenant (its
	// requests shed while others' succeed) drags the index down.
	var perTenant map[string]ClassMetrics
	fairness := 0.0
	if len(tenants) > 0 {
		perTenant = make(map[string]ClassMetrics, len(tenants))
		ratios := make([]float64, 0, len(tenants))
		for _, name := range tenants {
			tr := tenantRecs[name]
			r := tr.requests.Load()
			if r == 0 {
				continue
			}
			perTenant[name] = foldRec(tr, elapsed)
			ratios = append(ratios, float64(r-tr.errs.Load())/float64(r))
		}
		fairness = stats.JainFairness(ratios)
	}
	m := Metrics{
		ClassMetrics:  foldRec(all, elapsed),
		PerClass:      perClass,
		PerTenant:     perTenant,
		FairnessIndex: fairness,
	}
	if m.Requests > 0 {
		m.AllocsPerRequest = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(m.Requests)
	}
	// Record only the pacing knob the mode actually used: clients is
	// meaningless in open loop (one goroutine per in-flight arrival) and
	// rate in closed loop.
	cfgClients, cfgRate := clients, 0.0
	if sc.Mode == OpenLoop {
		cfgClients, cfgRate = 0, rate
	}
	cfgSchedule := ""
	if sc.Schedule != nil {
		cfgSchedule = sched.String() // the schedule as run, after scaling
		cfgRate = 0                  // the schedule is the rate
	}
	var events []obs.Event
	if evRing != nil {
		events = evRing.Since(evSince)
	}
	return Report{
		Schema:    SchemaVersion,
		Scenario:  sc.Name,
		GoVersion: runtime.Version(),
		Events:    events,
		Config: Config{
			Target:          tgt.Name(),
			Mode:            sc.Mode.String(),
			DurationSeconds: duration.Seconds(),
			Clients:         cfgClients,
			Rate:            cfgRate,
			Skew:            sc.Skew,
			Schedule:        cfgSchedule,
			Churn:           sc.Churn,
			Tenants:         tenants,
			Seed:            seed,
			Variants:        sc.CatalogSize(),
			Warm:            sc.Warm,
			Reset:           resetApplied,
			Cores:           runtime.GOMAXPROCS(0),
		},
		Metrics: m,
	}, nil
}
