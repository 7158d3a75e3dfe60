package main

// The benchmark's contract as data: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with
// the end-to-end metric and workload each is expected to move.
// BENCHMARK.json at the repo root carries the same rows (bench_test.go
// diffs the two), -compare applies the bounds, and README.md renders the
// tables for readers.

// metricSpec is one metric row.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare reports "worse" (0 for per-layer
	// metrics, which carry no bound).
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload a change to it should show up in.
	Moves string
}

// workloadSpec is one workload row.
type workloadSpec struct {
	Name string
	Why  string
}

const (
	wlEngineWarm = "engine-warm"
	wlWireWarm   = "wire-warm"
	wlWireRouted = "wire-routed"
	wlWireBatch  = "wire-batch"
	wlSweepCold  = "sweep-cold"
)

var workloadSpecs = []workloadSpec{
	{wlEngineWarm, "in-process ServeEncoded on a 16-key Zipf hot set: engine accounting and slab Get are all the work, no wire"},
	{wlWireWarm, "GET /v1/run JSON envelope over loopback to one engine, same hot set, 1 Hz scrapes: net/http, httpapi, decode, Render, JSON"},
	{wlWireRouted, "same client through a router front-end over three HTTP replicas, 59-key grid: placement, coalescer, hedging and the second hop"},
	{wlWireBatch, "POST /v1/batch 64-entry frames through the same front-end: frame codec, regroup by owner, multi-get; ops are entries"},
	{wlSweepCold, "POST /v1/sweep of a fresh 64-point E7 grid per call into a 4 MiB cache: every point misses, executes, encodes, evicts; ops are points"},
}

// End-to-end metric names. Three of ISSUE.md's eight are per-layer
// (e2e.*) instead, because a bounded metric must be never 0 and steadier
// than its bound: failed_share is 0 by construction, allocs_per_op is
// meant to reach 0 on engine-warm, and the p99's median moved 33 % between
// two sets of ten runs of one commit when the shared host got busy.
// Failures are also the result line's failed/attempted.
const (
	mOps    = "ops_per_s"
	mP50    = "lat_p50_us"
	mP99    = "e2e.lat_p99_us"
	mCPU    = "cpu_us_per_op"
	mHeap   = "live_heap_mb"
	mSetup  = "setup_s"
	mAllocs = "e2e.allocs_per_op"
	mFailed = "e2e.failed_share"
)

var endToEnd = []metricSpec{
	{Name: mOps, Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: mP50, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: mCPU, Unit: "us", Better: "lower", Bound: 0.25},
	{Name: mHeap, Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: mSetup, Unit: "s", Better: "lower", Bound: 0.25},
}

var perLayer = []metricSpec{
	// The untraced window of the traced run, and what the result line's
	// counts cannot carry.
	{Name: mAllocs, Unit: "count", Better: "lower", Moves: "every workload; generator included, subtract wire.null_allocs_per_op on wire rows"},
	{Name: mFailed, Unit: "share", Better: "lower", Moves: "every workload; must stay 0"},
	{Name: mP99, Unit: "us", Better: "lower", Moves: "every workload's tail: the user-visible p99, without a bound because the host's busy phases move it more than any bound allowed"},

	// wire: stdlib net/http + loopback + the benchmark's own client, the
	// floor no repo change can lower.
	{Name: "wire.null_rtt_p50_us", Unit: "us", Better: "lower", Moves: "subtract from wire-warm/wire-routed lat_p50_us"},
	{Name: "wire.null_ops_per_s", Unit: "1/s", Better: "higher", Moves: "ceiling of wire-warm ops_per_s"},
	{Name: "wire.null_cpu_us_per_op", Unit: "us", Better: "lower", Moves: "subtract from wire-warm/wire-routed cpu_us_per_op"},
	{Name: "wire.null_allocs_per_op", Unit: "count", Better: "lower", Moves: "subtract from wire-warm/wire-routed e2e.allocs_per_op"},

	{Name: "httpapi.request_context_ns", Unit: "ns", Better: "lower", Moves: "wire-warm lat_p50_us"},
	{Name: "httpapi.batch_encode_ns_per_entry", Unit: "ns", Better: "lower", Moves: "wire-batch ops_per_s, cpu_us_per_op"},
	{Name: "httpapi.batch_decode_ns_per_entry", Unit: "ns", Better: "lower", Moves: "wire-batch ops_per_s, cpu_us_per_op"},

	{Name: "core.decode_ns", Unit: "ns", Better: "lower", Moves: "wire-warm lat_p50_us, cpu_us_per_op"},
	{Name: "core.render_ns", Unit: "ns", Better: "lower", Moves: "wire-warm lat_p50_us, cpu_us_per_op"},
	{Name: "core.run_ns", Unit: "ns", Better: "lower", Moves: "sweep-cold ops_per_s"},
	{Name: "core.encode_ns", Unit: "ns", Better: "lower", Moves: "sweep-cold ops_per_s"},

	{Name: "stats.recorder_observe_ns", Unit: "ns", Better: "lower", Moves: "engine-warm ops_per_s"},
	{Name: "stats.recorder_observe_contended_ns", Unit: "ns", Better: "lower", Moves: "engine-warm ops_per_s"},
	{Name: "stats.histogram_observe_ns", Unit: "ns", Better: "lower", Moves: "engine-warm ops_per_s"},

	{Name: "admit.run_interactive_ns", Unit: "ns", Better: "lower", Moves: "sweep-cold ops_per_s (miss path)"},
	{Name: "admit.run_batch_ns", Unit: "ns", Better: "lower", Moves: "sweep-cold ops_per_s"},
	{Name: "admit.submitted", Unit: "count", Better: "lower", Moves: "0 on the four warm workloads; one per point on sweep-cold"},
	{Name: "admit.sheds", Unit: "count", Better: "lower", Moves: "sweep-cold failed share; must stay 0"},

	{Name: "serve.cache_get_ns", Unit: "ns", Better: "lower", Moves: "engine-warm ops_per_s, lat_p50_us"},
	{Name: "serve.engine_hit_ns", Unit: "ns", Better: "lower", Moves: "engine-warm ops_per_s, lat_p50_us"},
	{Name: "serve.engine_scale_eff", Unit: "ratio", Better: "higher", Moves: "engine-warm ops_per_s"},
	{Name: "serve.engine_hit_decoded_ns", Unit: "ns", Better: "lower", Moves: "wire-warm lat_p50_us, cpu_us_per_op"},
	{Name: "serve.handler_json_ns", Unit: "ns", Better: "lower", Moves: "wire-warm lat_p50_us, cpu_us_per_op, e2e.allocs_per_op"},
	{Name: "serve.handler_bin_ns", Unit: "ns", Better: "lower", Moves: "wire-routed lat_p50_us, cpu_us_per_op (the replica side of the hop)"},
	{Name: "serve.engine_batch_ns_per_item", Unit: "ns", Better: "lower", Moves: "wire-batch ops_per_s"},
	{Name: "serve.handler_batch_ns_per_item", Unit: "ns", Better: "lower", Moves: "wire-batch ops_per_s"},
	{Name: "serve.engine_miss_ns", Unit: "ns", Better: "lower", Moves: "sweep-cold ops_per_s"},
	{Name: "serve.cache_set_ns", Unit: "ns", Better: "lower", Moves: "sweep-cold ops_per_s"},
	{Name: "serve.requests", Unit: "count", Better: "higher", Moves: "work done: engine requests in the traced window"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Moves: "equals serve.requests on the warm workloads, 0 on sweep-cold"},
	{Name: "serve.deduped", Unit: "count", Better: "lower", Moves: "0 expected everywhere (no concurrent duplicate misses)"},
	{Name: "serve.executions", Unit: "count", Better: "lower", Moves: "0 on the warm workloads; one per point on sweep-cold"},
	{Name: "serve.sheds", Unit: "count", Better: "lower", Moves: "failed share; must stay 0"},
	{Name: "serve.hit_ratio", Unit: "ratio", Better: "higher", Moves: "1 on the warm workloads, 0 on sweep-cold"},
	{Name: "serve.cache_evicted", Unit: "count", Better: "lower", Moves: "sweep-cold only (working set exceeds the 4 MiB cache)"},
	{Name: "serve.cache_bytes", Unit: "B", Better: "lower", Moves: "live_heap_mb"},

	{Name: "router.route_hit_ns", Unit: "ns", Better: "lower", Moves: "wire-routed lat_p50_us, ops_per_s"},
	{Name: "router.http_backend_rtt_us", Unit: "us", Better: "lower", Moves: "wire-routed lat_p50_us, ops_per_s"},
	{Name: "router.route_batch_ns_per_item", Unit: "ns", Better: "lower", Moves: "wire-batch ops_per_s"},
	{Name: "router.http_backend_batch_us_per_item", Unit: "us", Better: "lower", Moves: "wire-batch ops_per_s"},
	{Name: "router.requests", Unit: "count", Better: "higher", Moves: "work done: routed requests in the traced window"},
	{Name: "router.failovers", Unit: "count", Better: "lower", Moves: "wire-routed lat_p99_us; 0 on a healthy cluster"},
	{Name: "router.exhausted", Unit: "count", Better: "lower", Moves: "failed share; must stay 0"},
	{Name: "router.hedges", Unit: "count", Better: "lower", Moves: "wire-routed cpu_us_per_op, lat_p99_us (wasted work on a healthy cluster)"},
	{Name: "router.hedge_wins", Unit: "count", Better: "lower", Moves: "wire-routed lat_p99_us"},
	{Name: "router.flushes_interactive", Unit: "count", Better: "higher", Moves: "wire-routed ops_per_s"},
	{Name: "router.flushes_window", Unit: "count", Better: "lower", Moves: "wire-batch lat_p50_us"},
	{Name: "router.flushes_full", Unit: "count", Better: "higher", Moves: "wire-batch ops_per_s"},
	{Name: "router.flushes_direct", Unit: "count", Better: "higher", Moves: "wire-batch ops_per_s"},
	{Name: "router.batch_size_mean", Unit: "count", Better: "higher", Moves: "wire-batch ops_per_s"},

	{Name: "sweep.parse_grid_us", Unit: "us", Better: "lower", Moves: "sweep-cold lat_p50_us"},
	{Name: "sweep.run_points_per_s", Unit: "1/s", Better: "higher", Moves: "sweep-cold ops_per_s"},
	{Name: "sweep.first_point_ms", Unit: "ms", Better: "lower", Moves: "sweep-cold lat_p50_us"},

	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower", Moves: "wire-warm lat_p99_us (the 1 Hz scrape)"},
	{Name: "obs.stats_snapshot_ms", Unit: "ms", Better: "lower", Moves: "wire-warm lat_p99_us (the 1 Hz scrape)"},

	// trace: self times per op from the spans of the traced window. They
	// telescope to trace.client_mean_us.
	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher", Moves: "the workload's ops_per_s with tracing on"},
	{Name: "trace.client_mean_us", Unit: "us", Better: "lower", Moves: "mean client span per op; the sum of the five self times"},
	{Name: "trace.client_self_us", Unit: "us", Better: "lower", Moves: "generator + loopback + net/http: not the repo's to save"},
	{Name: "trace.frontend_self_us", Unit: "us", Better: "lower", Moves: "wire-routed, wire-batch lat_p50_us (router + front-end httpapi)"},
	{Name: "trace.hop_self_us", Unit: "us", Better: "lower", Moves: "wire-routed, wire-batch lat_p50_us (HTTPBackend + second socket)"},
	{Name: "trace.replica_self_us", Unit: "us", Better: "lower", Moves: "wire-warm lat_p50_us; sweep-cold fan-out, admit, encode, slab"},
	{Name: "trace.core_run_us", Unit: "us", Better: "lower", Moves: "sweep-cold ops_per_s (blocking share of core execution)"},
	{Name: "trace.core_run_busy_us", Unit: "us", Better: "lower", Moves: "sweep-cold cpu_us_per_op (summed core execution, parallel runs counted each)"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Moves: "spans recorded in the traced window"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "1 - traced/untraced ops_per_s of the same run"},
}
