package load

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/obs"
)

// SchemaVersion is the report schema; Validate rejects any other. Bump
// it on any incompatible field change. Schema 2 added the control-plane
// event timeline (Events) so a colocation artifact carries the
// controller's decisions alongside the latency verdict they produced.
// Schema 3 added the adversarial-workload fields: the rate-schedule/
// churn/tenant configuration knobs and the per-tenant books with Jain's
// fairness index.
const SchemaVersion = 3

// Config records the knobs a report was measured under, so a report is
// self-describing.
type Config struct {
	// Target is the target kind ("engine" or "http").
	Target string `json:"target"`
	// Mode is the pacing discipline ("closed" or "open").
	Mode string `json:"mode"`
	// DurationSeconds is the requested measurement window.
	DurationSeconds float64 `json:"duration_seconds"`
	// Clients is closed-loop concurrency; Rate the open-loop arrival
	// rate; Skew the Zipf exponent (0 = round-robin).
	Clients int     `json:"clients,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Skew    float64 `json:"skew,omitempty"`
	// Schedule is the piecewise rate schedule the open loop followed
	// (spec syntax, as run — i.e. after any -duration scaling), empty
	// for constant-rate runs. Churn reports whether the Zipf rank→
	// variant mapping permuted at segment boundaries.
	Schedule string `json:"schedule,omitempty"`
	Churn    bool   `json:"churn,omitempty"`
	// Tenants names the scenario's tenant groups, in catalog order;
	// empty for single-tenant runs.
	Tenants []string `json:"tenants,omitempty"`
	// Seed drove trace generation and client key draws.
	Seed uint64 `json:"seed"`
	// Variants is the request catalog size: the primary variants plus
	// every group's.
	Variants int `json:"variants"`
	// Warm reports whether the cache was pre-warmed before measuring.
	Warm bool `json:"warm,omitempty"`
	// Reset reports whether the target's cache was actually dropped
	// before the run — false for a Reset scenario pointed at a target
	// that cannot reset (a live daemon), so "cold" artifacts measured
	// warm are distinguishable.
	Reset bool `json:"reset,omitempty"`
	// Cores is GOMAXPROCS during the run: a recorded fact, not a knob
	// (set it with the GOMAXPROCS environment variable).
	Cores int `json:"cores,omitempty"`
}

// Latency is the measured latency distribution, in seconds.
type Latency struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// ClassMetrics is one request class's slice of a run's outcome — what a
// colocation scenario reports per class so interactive tail latency is
// legible independently of the batch storm sharing the window.
type ClassMetrics struct {
	// Requests counts the class's issued requests; Errors those that
	// failed; ErrorRate their ratio.
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	ErrorRate float64 `json:"error_rate"`
	// DurationSeconds is the achieved (wall-clock) window.
	DurationSeconds float64 `json:"duration_seconds"`
	// ThroughputRPS is the class's successful requests per second.
	ThroughputRPS float64 `json:"throughput_rps"`
	// CacheHitRatio and DedupRatio are fractions of the class's
	// successful requests served from cache / piggybacked in flight.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	DedupRatio    float64 `json:"dedup_ratio"`
	// Latency is the class's successful-request latency distribution
	// (seconds).
	Latency Latency `json:"latency_seconds"`
}

// Metrics is one run's measured outcome: the cross-class aggregate
// (latency measured from scheduled arrival in open loop, coordinated-
// omission free, and from send in closed loop), then its splits.
type Metrics struct {
	ClassMetrics
	// PerClass splits the outcome by request class ("interactive",
	// "batch") when the scenario issued more than the default class —
	// colocation runs read their headline QoS verdict here. Absent for
	// single-class runs measured before this field existed (the addition
	// is schema-compatible: all prior fields are unchanged).
	PerClass map[string]ClassMetrics `json:"per_class,omitempty"`
	// PerTenant splits the outcome by tenant for multi-tenant scenarios
	// (same shape as a class slice — a tenant's issued/succeeded/latency
	// books), keyed by tenant name. Absent otherwise.
	PerTenant map[string]ClassMetrics `json:"per_tenant,omitempty"`
	// FairnessIndex is Jain's index over each tenant's success ratio
	// (successful/issued): demand-normalized, so offered-load skew alone
	// does not lower it, while a tenant starved by sheds does. 1 is
	// perfectly fair, 1/n is one tenant taking everything; 0 when the
	// run had no tenant groups.
	FairnessIndex float64 `json:"fairness_index,omitempty"`
	// AllocsPerRequest is the heap allocation count per issued request
	// over the measured window (runtime Mallocs delta / requests),
	// covering the target's serving path plus the generator's own loop.
	// It is a reading, not a gate: the exact per-path pins are the
	// AllocsPerRun tests in serve and router. Absent in reports measured
	// before this field existed (the addition is schema-compatible, like
	// PerClass).
	AllocsPerRequest float64 `json:"allocs_per_request,omitempty"`
}

// Report is one scenario run — the versioned, machine-readable artifact
// `arch21 loadtest -json` writes.
type Report struct {
	// Schema is the artifact schema version (SchemaVersion).
	Schema int `json:"schema"`
	// Scenario names the catalog scenario measured.
	Scenario string `json:"scenario"`
	// Git is `git describe --always --dirty` at measurement time (empty
	// when unknown — e.g. tests).
	Git string `json:"git,omitempty"`
	// GoVersion is runtime.Version() of the measuring binary.
	GoVersion string `json:"go_version"`
	// Config is the run configuration; Metrics the measured outcome.
	Config  Config  `json:"config"`
	Metrics Metrics `json:"metrics"`
	// Events is the target's control-plane event timeline over the run —
	// controller decisions (halve/reclaim/hold with before/after rates),
	// sheds, ejections — captured from the engine's ring when the target
	// exposes one. A colocation artifact's controller story lives here.
	Events []obs.Event `json:"events,omitempty"`
}

// Validate checks that a report is a usable artifact: current
// schema, named scenario, and nonzero measured traffic (throughput and
// tail both present).
func (r Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("load: report schema %d, want %d", r.Schema, SchemaVersion)
	}
	if r.Scenario == "" {
		return fmt.Errorf("load: report has no scenario name")
	}
	if r.Metrics.Requests <= 0 {
		return fmt.Errorf("load: report %s measured no requests", r.Scenario)
	}
	if r.Metrics.ThroughputRPS <= 0 {
		return fmt.Errorf("load: report %s has zero throughput", r.Scenario)
	}
	if r.Metrics.Latency.P99 <= 0 {
		return fmt.Errorf("load: report %s has zero p99", r.Scenario)
	}
	return nil
}

// WriteFile serializes one report as indented JSON.
func WriteFile(path string, rep Report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("load: encode report: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
