// Package load is the toolkit's self-measuring load-generation subsystem:
// it replays open-loop (PoissonTrace-driven, arrival-faithful) and
// closed-loop (N concurrent clients) request streams against an
// experiment-serving target — the in-process serve.Engine or a live
// arch21d HTTP endpoint — using Zipf-keyed experiment/parameter mixes
// built from internal/workload so cache hit ratios are realistic. Each run
// records per-request latency into stats.LatencyRecorder and serializes a
// versioned Report: achieved throughput, p50/p95/p99/p999, error rate,
// cache hit and dedup ratios, per-class and per-tenant books, and the
// target's control-plane events — the closed-loop evaluation
// infrastructure the paper's agenda calls for, applied to the serving
// stack itself. What it keeps is what the repository benchmark (bench/)
// cannot do: open-loop schedules and the colocation, flash-crowd,
// degraded-replica, multi-tenant and chaos scenarios, judged by their
// acceptance tests on events and invariants. Whether a change made the
// stack slower is bench/'s question (make bench-compare), not this
// package's.
package load

import (
	"fmt"
	"strings"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// Variant is one distinct request the generator can issue: an experiment
// ID plus a (possibly nil) parameter assignment, issued under a QoS
// class. Distinct (ID, params) pairs hit distinct cache keys in the
// serving engine.
type Variant struct {
	// ID is the experiment to request.
	ID string
	// Params is the parameter assignment (nil for defaults).
	Params core.Params
	// Class is the request class the variant is issued under (zero value
	// admit.Interactive). The target carries it to the scheduler — as a
	// context tag in-process, as X-Arch21-Class over HTTP.
	Class admit.Class
	// Tenant is the tenant identity the variant is issued under (empty
	// for untenanted traffic). Carried like Class — context tag
	// in-process, X-Arch21-Tenant over HTTP — and stamped by the runner
	// from the owning Group in multi-tenant scenarios.
	Tenant string
}

// String renders the variant like an engine cache key ("E7?bces=64&f=0.9";
// bare ID for default assignments).
func (v Variant) String() string {
	as := v.Params.Assignments()
	if len(as) == 0 {
		return v.ID
	}
	return v.ID + "?" + strings.Join(as, "&")
}

// Mode selects how the generator paces requests.
type Mode uint8

const (
	// ClosedLoop runs N clients in think-time-free loops: each client
	// issues its next request as soon as the previous one completes, so
	// offered load adapts to the target (a saturation probe).
	ClosedLoop Mode = iota
	// OpenLoop replays a Poisson arrival trace faithfully: requests fire
	// at their scheduled arrival times regardless of completions, and
	// latency is measured from the scheduled arrival — generator lag and
	// queueing count against the target (no coordinated omission).
	OpenLoop
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ClosedLoop:
		return "closed"
	case OpenLoop:
		return "open"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Scenario is one named load shape from the catalog.
type Scenario struct {
	// Name identifies the scenario (the -scenario flag and Report key).
	Name string
	// Doc is a one-line description.
	Doc string
	// Mode is the pacing discipline.
	Mode Mode
	// Variants is the request catalog, hottest first: under a Zipf skew,
	// Variants[0] receives the most traffic.
	Variants []Variant
	// Skew is the Zipf exponent over Variants. Zero means strict
	// round-robin cycling (every variant touched equally, in order) —
	// what the cold-grid scenarios use to guarantee full coverage.
	Skew float64
	// Rate is the default open-loop arrival rate (req/s).
	Rate float64
	// Clients is the default closed-loop concurrency.
	Clients int
	// Warm pre-touches every variant once before the measured window, so
	// the run measures the steady (warm-cache) state.
	Warm bool
	// Reset drops the target's cache before the run (engine targets
	// only), so the run measures cold/compulsory-miss behavior.
	Reset bool
	// Seed drives trace generation and client key draws.
	Seed uint64
	// Schedule, when set, replaces the constant open-loop Rate with a
	// piecewise rate schedule: arrivals follow its ramps and steps (a
	// non-homogeneous Poisson process), the default duration becomes the
	// schedule's natural span, and an explicit -duration stretches or
	// compresses the schedule to fit (shape preserved). Open loop only.
	Schedule *workload.RateSchedule
	// Churn permutes the Zipf rank→variant mapping at every Schedule
	// segment boundary, so a regime change moves the hot set as well as
	// the rate.
	Churn bool
	// Groups are closed-loop client groups run alongside the primary
	// stream for the same measured window, each over its own catalog: a
	// colocation storm, or the tenants of a multi-tenant scenario.
	// Variants may be empty when Groups is set.
	Groups []Group
}

// Group is one closed-loop client group: Clients clients (default 4)
// drawing from Variants under Skew, with the same contract as the
// scenario-level fields. A group with a Tenant stamps that identity on
// every request, gets its own books in the report and a place in Jain's
// fairness index, and is warmed with the primary variants when the
// scenario is Warm; an unnamed group (the colocation storm) stays cold,
// because cold work is the pressure it exists to apply. Offered-load skew between tenants is
// expressed through Clients: a 10-client tenant offers 10x the demand of
// a 1-client tenant.
type Group struct {
	Tenant   string
	Variants []Variant
	Skew     float64
	Clients  int
}

// stamp issues v under the group's tenant, if it has one.
func (g *Group) stamp(v Variant) Variant {
	if g.Tenant != "" {
		v.Tenant = g.Tenant
	}
	return v
}

// CatalogSize counts the distinct requests a scenario can issue: its
// primary variants and every group's.
func (sc Scenario) CatalogSize() int {
	n := len(sc.Variants)
	for _, g := range sc.Groups {
		n += len(g.Variants)
	}
	return n
}

// gridVariants expands a sweep-style parameter grid ("f=0.9:0.99:0.01")
// into one variant per grid point, reusing the sweep package's
// deterministic axis parsing and row-major expansion so a load scenario's
// request construction matches what POST /sweep would fan out. The
// catalog is static, so malformed axes fail loudly.
func gridVariants(id string, axes ...string) []Variant {
	sp, err := sweep.ParseSpec(id, axes)
	if err != nil {
		panic(fmt.Sprintf("load: bad scenario grid for %s: %v", id, err))
	}
	grid := sp.Grid()
	out := make([]Variant, len(grid))
	for i, p := range grid {
		out[i] = Variant{ID: id, Params: p}
	}
	return out
}

// defaults builds one default-parameter variant per ID.
func defaults(ids ...string) []Variant {
	out := make([]Variant, len(ids))
	for i, id := range ids {
		out[i] = Variant{ID: id}
	}
	return out
}

// Scenarios returns the scenario catalog. Every variant references the
// core registry (a test pins this), and every scenario is deterministic
// for a fixed seed.
func Scenarios() []Scenario {
	warm := append(
		defaults("E7", "E5", "E1", "E2", "E4", "E10", "E14", "E17", "E22", "T1"),
		Variant{ID: "E7", Params: core.Params{"f": 0.9}},
		Variant{ID: "E7", Params: core.Params{"bces": 1024}},
		Variant{ID: "E7", Params: core.Params{"f": 0.99, "bces": 64}},
		Variant{ID: "E5", Params: core.Params{"tile": 1024}},
		Variant{ID: "E5", Params: core.Params{"operands": 6}},
		Variant{ID: "E1", Params: core.Params{"gens": 12}},
	)
	mixed := append(
		defaults("E7", "E5", "E1", "E2", "E14", "E4", "E17", "E10", "E8", "E23", "T2", "E11", "E19"),
		Variant{ID: "E7", Params: core.Params{"f": 0.95}},
		Variant{ID: "E5", Params: core.Params{"tile": 16384}},
		Variant{ID: "E1", Params: core.Params{"gens": 3}},
	)
	coldStorm := append(
		gridVariants("E7", "f=0.9:0.99:0.01", "bces=16,64,256,1024"),
		gridVariants("E5", "operands=1:8:1", "tile=1024,4096,16384")...,
	)
	churn := append(
		gridVariants("E7", "f=0.9:0.99:0.005", "bces=16,64,256,1024,4096"),
		append(
			gridVariants("E5", "operands=1:8:1", "tile=256,1024,4096,16384,65536"),
			gridVariants("E1", "gens=1:12:1")...,
		)...,
	)
	// A wide, cheap key set whose cache keys scatter across a consistent
	// ring: many distinct E7/E1 points plus a band of defaults, so an
	// N-replica router sees every backend take traffic.
	scatter := append(
		gridVariants("E7", "f=0.9:0.99:0.01", "bces=16,64,256,1024"),
		append(
			gridVariants("E1", "gens=1:12:1"),
			defaults("E2", "E4", "E10", "E14", "E17", "E22", "T1")...,
		)...,
	)
	// Colocation: the warm interactive mix under a concurrent batch
	// sweep-storm of cold grid points. The scheduler serves interactive
	// work first, so its per-class p99 must stay flat while batch makes
	// progress. (The no-QoS inversion it avoids is E15's comparison.)
	batchStorm := asBatch(append(
		gridVariants("E7", "f=0.9:0.99:0.005", "bces=16,64,256,1024,4096"),
		gridVariants("E5", "operands=1:8:1", "tile=256,1024,4096,16384,65536")...,
	))
	// Non-stationary arrival shapes (scaled to -duration when one is
	// given): a day compressed to ten seconds, and a 10x step storm.
	diurnal := workload.MustRateSchedule("60@2s,60:240@2s,240@2s,240:60@2s,60@2s")
	flash := workload.MustRateSchedule("150@2s,1500@1s,150@2s")
	return []Scenario{
		{
			Name: "warm-hammer",
			Doc:  "closed-loop hammer on a small hot set, cache pre-warmed: steady-state hit-path throughput and tail",
			Mode: ClosedLoop, Variants: warm, Skew: 1.1, Clients: 8, Warm: true, Seed: 1,
		},
		{
			Name: "cold-storm",
			Doc:  "closed-loop round-robin over a cold parameter grid: every request a compulsory miss on first pass",
			Mode: ClosedLoop, Variants: coldStorm, Skew: 0, Clients: 8, Reset: true, Seed: 2,
		},
		{
			Name: "mixed-zipf",
			Doc:  "open-loop Poisson arrivals, Zipf-keyed over a mixed cheap/expensive catalog: realistic hit ratio under arrival-faithful load",
			Mode: OpenLoop, Variants: mixed, Skew: 0.9, Rate: 300, Seed: 3,
		},
		{
			Name: "herd",
			Doc:  "thundering herd: many clients demand one cold expensive key at once; singleflight must collapse the stampede",
			Mode: ClosedLoop, Variants: defaults("E9"), Clients: 32, Reset: true, Seed: 4,
		},
		{
			Name: "cluster-scatter",
			Doc:  "closed-loop round-robin over a wide warmed key grid: consistent-hash placement scatters requests across every replica — run against a router (arch21 loadtest -replicas N) to measure routed serving like any single engine",
			Mode: ClosedLoop, Variants: scatter, Skew: 0, Clients: 8, Warm: true, Seed: 6,
		},
		{
			Name: "degraded-replica",
			Doc:  "the cluster-scatter grid against a cluster with one replica injected slow (arch21 loadtest -replicas N -degrade 50ms): the latency scoreboard must hedge around and demote the straggler so routed p99 stays near the all-healthy baseline instead of inheriting the slow replica's tail",
			Mode: ClosedLoop, Variants: scatter, Skew: 0, Clients: 8, Warm: true, Seed: 11,
		},
		{
			Name: "param-churn",
			Doc:  "closed-loop cycling through a large parameter grid: first pass cold, later passes warm — memoization under churn",
			Mode: ClosedLoop, Variants: churn, Skew: 0, Clients: 4, Seed: 5,
		},
		{
			Name: "colocation",
			Doc:  "warm interactive hammer colocated with a concurrent batch sweep-storm: per-class report proves batch pressure is not moving interactive p99",
			Mode: ClosedLoop, Variants: warm, Skew: 1.1, Clients: 8, Warm: true, Seed: 7,
			Groups: []Group{{Variants: batchStorm, Clients: 8}},
		},
		{
			Name: "diurnal",
			Doc:  "open-loop trough-peak-trough rate ramp over the mixed catalog with Zipf churn at segment boundaries: the admission scheduler and -lc-slo controller through a regime change, not steady state",
			Mode: OpenLoop, Variants: mixed, Skew: 0.9, Schedule: &diurnal, Churn: true, Seed: 8,
		},
		{
			Name: "flash-crowd",
			Doc:  "open-loop 10x step storm over the warmed hot set with churn: arrivals overrun capacity for one segment, then fall back — the token bucket and controller must absorb the step and recover after it ends",
			Mode: OpenLoop, Variants: warm, Skew: 1.1, Schedule: &flash, Churn: true, Warm: true, Seed: 9,
		},
		{
			Name: "multi-tenant",
			Doc:  "three closed-loop tenants with distinct Zipf mixes, classes, and a 10:1 offered-load skew (anchor 10 clients vs tail 1): per-tenant books and Jain's fairness index land in the report",
			Mode: ClosedLoop, Warm: true, Seed: 10,
			Groups: []Group{
				{Tenant: "anchor", Variants: warm, Skew: 1.1, Clients: 10},
				{Tenant: "tail", Variants: mixed, Skew: 0.9, Clients: 1},
				{Tenant: "bulk", Variants: asBatch(gridVariants("E1", "gens=1:12:1")), Skew: 0, Clients: 2},
			},
		},
	}
}

// asBatch forces every variant's class to admit.Batch.
func asBatch(vs []Variant) []Variant {
	for i := range vs {
		vs[i].Class = admit.Batch
	}
	return vs
}

// ScenarioByName finds a catalog scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
