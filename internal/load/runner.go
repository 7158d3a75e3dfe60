package load

import (
	"fmt"
	"runtime"
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

// classRec accumulates one class's (or one tenant's) measurements.
type classRec struct {
	rec      *stats.LatencyRecorder
	requests atomic.Int64
	errs     atomic.Int64
	hits     atomic.Int64
	shared   atomic.Int64
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
// before the measured window and are excluded from every metric. When
// the scenario couples a BatchStorm, its batch-class clients hammer the
// target for the same window and the report's PerClass section splits
// every metric by class — the top-level Metrics stay the cross-class
// aggregate. A Schedule drives open-loop arrivals through its ramps and
// steps instead of a constant rate; Tenants adds per-tenant closed-loop
// client groups, per-tenant books, and Jain's fairness index.
func Run(tgt Target, sc Scenario, opt Options) (Report, error) {
	if len(sc.Variants) == 0 && len(sc.Tenants) == 0 {
		return Report{}, fmt.Errorf("load: scenario %q has no variants", sc.Name)
	}
	if len(sc.Tenants) > 0 && sc.Mode != ClosedLoop {
		return Report{}, fmt.Errorf("load: scenario %q: tenant mixes need closed-loop pacing", sc.Name)
	}
	if sc.Schedule != nil {
		if sc.Mode != OpenLoop {
			return Report{}, fmt.Errorf("load: scenario %q: a rate schedule needs open-loop pacing", sc.Name)
		}
		if err := sc.Schedule.Validate(); err != nil {
			return Report{}, fmt.Errorf("load: scenario %q: bad schedule: %v", sc.Name, err)
		}
	}
	seenTenant := make(map[string]bool, len(sc.Tenants))
	for _, tm := range sc.Tenants {
		if tm.Name == "" || len(tm.Variants) == 0 {
			return Report{}, fmt.Errorf("load: scenario %q: every tenant mix needs a name and variants", sc.Name)
		}
		if seenTenant[tm.Name] {
			return Report{}, fmt.Errorf("load: scenario %q: duplicate tenant %q", sc.Name, tm.Name)
		}
		seenTenant[tm.Name] = true
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

	// A reset that cannot be applied (HTTP targets) is recorded as such,
	// so a "cold" artifact measured against a warm daemon is
	// distinguishable from a genuinely cold run.
	resetApplied := false
	if sc.Reset {
		if r, ok := tgt.(Resetter); ok {
			r.ResetCache()
			resetApplied = true
		}
	}
	if sc.Warm {
		for _, v := range sc.Variants {
			if _, err := tgt.Do(v); err != nil {
				return Report{}, fmt.Errorf("load: warmup %s: %w", v, err)
			}
		}
		// Tenant warmup carries the tenant identity too: an engine keeping
		// per-tenant books must not see warmup as anonymous traffic.
		for _, tm := range sc.Tenants {
			for _, v := range tm.Variants {
				v.Tenant = tm.Name
				if _, err := tgt.Do(v); err != nil {
					return Report{}, fmt.Errorf("load: warmup %s (tenant %s): %w", v, tm.Name, err)
				}
			}
		}
	}

	recs := make(map[admit.Class]*classRec, 2)
	for i, c := range admit.Classes() {
		recs[c] = &classRec{rec: stats.NewLatencyRecorder(sampleCap, seed+uint64(i))}
	}
	// Per-tenant books mirror the per-class ones. The map is fully
	// populated here, before any client goroutine starts, and only read
	// afterwards — tenant identities come from the scenario, never from
	// responses, so the book set is bounded by config.
	tenantRecs := make(map[string]*classRec, len(sc.Tenants))
	for i, tm := range sc.Tenants {
		tenantRecs[tm.Name] = &classRec{rec: stats.NewLatencyRecorder(sampleCap, seed+200+uint64(i))}
	}
	agg := stats.NewLatencyRecorder(sampleCap, seed+100)

	// Capture the target's control-plane event timeline over the measured
	// window: everything recorded after this cursor lands in the report
	// (controller decisions, sheds, ejections). Warmup noise is excluded
	// because the cursor is taken after warmup.
	var evRing *obs.Events
	var evSince uint64
	if es, ok := tgt.(EventSource); ok {
		if ev := es.Events(); ev != nil {
			evRing, evSince = ev, ev.Total()
		}
	}

	// measure issues one request, timing it from started (the scheduled
	// arrival in open loop, the send in closed loop) into the variant's
	// class bucket and the cross-class aggregate. Failed requests count
	// toward the class error rate but not its latency distribution.
	measure := func(v Variant, started time.Time) bool {
		cr := recs[v.Class]
		tr := tenantRecs[v.Tenant]
		out, err := tgt.Do(v)
		cr.requests.Add(1)
		if tr != nil {
			tr.requests.Add(1)
		}
		if err != nil {
			cr.errs.Add(1)
			if tr != nil {
				tr.errs.Add(1)
			}
			return false
		}
		lat := time.Since(started).Seconds()
		cr.rec.Observe(lat)
		agg.Observe(lat)
		if tr != nil {
			tr.rec.Observe(lat)
		}
		if out.CacheHit {
			cr.hits.Add(1)
			if tr != nil {
				tr.hits.Add(1)
			}
		}
		if out.Shared {
			cr.shared.Add(1)
			if tr != nil {
				tr.shared.Add(1)
			}
		}
		return true
	}

	// Bracket the measured window with allocator snapshots: the Mallocs
	// delta divided by requests is the run's allocs-per-request figure.
	// The bracket excludes warmup (above) but includes the generator's
	// own per-request overhead: the figure covers the whole measured
	// loop, which is exactly what throughput runs on.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)

	t0 := time.Now()

	// The colocated batch storm: closed-loop batch-class clients cycling
	// the storm catalog for the same measured window.
	var stormWG sync.WaitGroup
	if sc.Batch != nil && len(sc.Batch.Variants) > 0 {
		bclients := sc.Batch.Clients
		if bclients <= 0 {
			bclients = 8
		}
		deadline := t0.Add(duration)
		var next atomic.Int64
		for c := 0; c < bclients; c++ {
			stormWG.Add(1)
			go func() {
				defer stormWG.Done()
				for time.Now().Before(deadline) {
					v := sc.Batch.Variants[int((next.Add(1)-1)%int64(len(sc.Batch.Variants)))]
					measure(v, time.Now())
				}
			}()
		}
	}

	// Tenant client groups: each mix drives its own closed-loop clients
	// over its own catalog, every request stamped with the tenant
	// identity. A failed request (most often a shed under contention)
	// backs the client off briefly so a fail-fast shed storm measures
	// the target's refusal policy instead of a retry busy-loop.
	var tenantWG sync.WaitGroup
	if len(sc.Tenants) > 0 {
		deadline := t0.Add(duration)
		for ti, tm := range sc.Tenants {
			tclients := tm.Clients
			if tclients <= 0 {
				tclients = 2
			}
			next := &atomic.Int64{}
			for c := 0; c < tclients; c++ {
				tenantWG.Add(1)
				go func(ti, c int, tm TenantMix, next *atomic.Int64) {
					defer tenantWG.Done()
					var z *stats.Zipf
					var rng *stats.RNG
					if tm.Skew > 0 && len(tm.Variants) > 1 {
						z = stats.NewZipf(len(tm.Variants), tm.Skew)
						rng = stats.NewRNG(seed + uint64(ti)*2000003 + uint64(c)*1000003 + 1)
					}
					for time.Now().Before(deadline) {
						var v Variant
						if z != nil {
							v = tm.Variants[z.Rank(rng)-1]
						} else {
							v = tm.Variants[int((next.Add(1)-1)%int64(len(tm.Variants)))]
						}
						v.Tenant = tm.Name
						if !measure(v, time.Now()) {
							time.Sleep(200 * time.Microsecond)
						}
					}
				}(ti, c, tm, next)
			}
		}
	}

	switch sc.Mode {
	case OpenLoop:
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
		// Service demand is the target's to determine, so the trace's
		// service distribution is irrelevant — only arrivals and keys are
		// replayed. Skew 0 keeps the same round-robin contract as closed
		// loop: Poisson arrivals, but variants cycle in order so a grid
		// catalog gets full coverage.
		rng := stats.NewRNG(seed)
		var trace workload.RequestTrace
		var idx []int
		if sc.Schedule != nil {
			trace = workload.ScheduledZipfTrace(sched, n, len(sc.Variants), sc.Skew, sc.Churn, rng)
			idx = trace.Assignments(len(sc.Variants))
		} else if sc.Skew > 0 {
			trace = workload.ZipfTrace(n, rate, stats.Constant{V: 0},
				len(sc.Variants), sc.Skew, rng)
			idx = trace.Assignments(len(sc.Variants))
		} else {
			trace = workload.PoissonTrace(n, rate, stats.Constant{V: 0}, rng)
			idx = make([]int, len(trace))
			for i := range idx {
				idx[i] = i % len(sc.Variants)
			}
		}
		var wg sync.WaitGroup
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
		wg.Wait()
	case ClosedLoop:
		deadline := t0.Add(duration)
		var next atomic.Int64
		var wg sync.WaitGroup
		if len(sc.Variants) == 0 {
			clients = 0 // tenant groups carry the whole scenario
		}
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Skewed scenarios give each client its own Zipf stream
				// (deterministic per seed+client); skew 0 round-robins a
				// shared counter so every variant is touched in order.
				var z *stats.Zipf
				var rng *stats.RNG
				if sc.Skew > 0 && len(sc.Variants) > 1 {
					z = stats.NewZipf(len(sc.Variants), sc.Skew)
					rng = stats.NewRNG(seed + uint64(c)*1000003 + 1)
				}
				for time.Now().Before(deadline) {
					var v Variant
					if z != nil {
						v = sc.Variants[z.Rank(rng)-1]
					} else {
						v = sc.Variants[int((next.Add(1)-1)%int64(len(sc.Variants)))]
					}
					measure(v, time.Now())
				}
			}()
		}
		wg.Wait()
	default:
		return Report{}, fmt.Errorf("load: scenario %q has unknown mode %v", sc.Name, sc.Mode)
	}
	stormWG.Wait()
	tenantWG.Wait()
	elapsed := time.Since(t0)
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	// Fold per-class books into class metrics plus a cross-class
	// aggregate (the top-level Metrics every existing consumer reads).
	var req, errCount, hits, shared int64
	perClass := make(map[string]ClassMetrics, len(recs))
	for _, c := range admit.Classes() {
		cr := recs[c]
		r := cr.requests.Load()
		if r == 0 {
			continue
		}
		perClass[c.String()] = foldRec(cr, elapsed)
		req += r
		errCount += cr.errs.Load()
		hits += cr.hits.Load()
		shared += cr.shared.Load()
	}
	// Per-tenant books fold the same way; fairness is Jain's index over
	// each tenant's success ratio (successful/issued) — demand-
	// normalized, so a 10:1 offered-load skew served without
	// discrimination still scores ~1, while a starved tenant (its
	// requests shed while others' succeed) drags the index down.
	var perTenant map[string]ClassMetrics
	fairness := 0.0
	if len(sc.Tenants) > 0 {
		perTenant = make(map[string]ClassMetrics, len(sc.Tenants))
		ratios := make([]float64, 0, len(sc.Tenants))
		for _, tm := range sc.Tenants {
			tr := tenantRecs[tm.Name]
			r := tr.requests.Load()
			if r == 0 {
				continue
			}
			perTenant[tm.Name] = foldRec(tr, elapsed)
			ratios = append(ratios, float64(r-tr.errs.Load())/float64(r))
		}
		fairness = stats.JainFairness(ratios)
	}
	snap := agg.Snapshot()

	ok := req - errCount
	m := Metrics{
		Requests:        req,
		Errors:          errCount,
		DurationSeconds: elapsed.Seconds(),
		Latency: Latency{
			Mean: snap.Mean, P50: snap.P50, P95: snap.P95,
			P99: snap.P99, P999: snap.P999, Min: snap.Min, Max: snap.Max,
		},
		PerClass:      perClass,
		PerTenant:     perTenant,
		FairnessIndex: fairness,
	}
	if elapsed > 0 {
		m.ThroughputRPS = float64(ok) / elapsed.Seconds()
	}
	if req > 0 {
		m.ErrorRate = float64(errCount) / float64(req)
	}
	if ok > 0 {
		m.CacheHitRatio = float64(hits) / float64(ok)
		m.DedupRatio = float64(shared) / float64(ok)
	}
	if req > 0 {
		m.AllocsPerRequest = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(req)
	}
	// Record only the pacing knob the mode actually used: clients is
	// meaningless in open loop (one goroutine per in-flight arrival) and
	// rate in closed loop.
	cfgClients, cfgRate := clients, 0.0
	if sc.Mode == OpenLoop {
		cfgClients, cfgRate = 0, rate
	}
	nVariants := len(sc.Variants)
	cfgSchedule := ""
	if sc.Schedule != nil {
		cfgSchedule = sched.String() // the schedule as run, after scaling
		cfgRate = 0                  // the schedule is the rate
	}
	var cfgTenants []string
	for _, tm := range sc.Tenants {
		cfgTenants = append(cfgTenants, tm.Name)
		nVariants += len(tm.Variants)
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
			Tenants:         cfgTenants,
			Seed:            seed,
			Variants:        nVariants,
			Warm:            sc.Warm,
			Reset:           resetApplied,
			Cores:           runtime.GOMAXPROCS(0),
		},
		Metrics: m,
	}, nil
}
