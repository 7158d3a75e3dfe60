package serve

// The engine's observability plane: the Prometheus /metrics registry, the
// structured event log and the live POST /control channel. /metrics reads
// atomics and the cumulative histograms at scrape time, and the
// controller's TakeClassWindow differences the same histograms against
// its own last reading — neither resets anything, so scraping, no matter
// how aggressive, cannot perturb the QoS feedback signal.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admit"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Events returns the engine's control-plane event ring (never nil).
func (e *Engine) Events() *obs.Events { return e.events }

// OnSLOChange registers the actuator POST /control drives for slo_ms:
// cmd/arch21d hooks the QoS supervisor's SetSLO here. A nil fn detaches
// (control requests carrying slo_ms are then rejected).
func (e *Engine) OnSLOChange(fn func(slo time.Duration) error) {
	e.sloMu.Lock()
	e.sloHook = fn
	e.sloMu.Unlock()
}

// MetricsRegistry returns the engine's /metrics registry, built once.
// Every collector reads atomics or cumulative histograms, so a scrape
// costs microseconds and touches nothing a controller depends on.
func (e *Engine) MetricsRegistry() *obs.Registry {
	e.obsOnce.Do(func() { e.obsReg = e.buildRegistry() })
	return e.obsReg
}

// classCounterVec renders one per-class counter family from a field
// selector.
func (e *Engine) classCounterVec(get func(*classCounters) int64) func() []obs.Sample {
	return func() []obs.Sample {
		out := make([]obs.Sample, 0, len(e.classes))
		for _, class := range admit.Classes() {
			out = append(out, obs.Sample{
				Values: []string{class.String()},
				Value:  float64(get(&e.classes[class])),
			})
		}
		return out
	}
}

func (e *Engine) buildRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Gauge("arch21_uptime_seconds", "Seconds since the engine started.",
		func() float64 { return time.Since(e.started).Seconds() })
	r.CounterVec("arch21_requests_total", "Validated requests by class.", []string{"class"},
		e.classCounterVec((*classCounters).requests))
	r.CounterVec("arch21_cache_hits_total", "Requests answered from cache, by class.", []string{"class"},
		e.classCounterVec((*classCounters).hits))
	r.CounterVec("arch21_deduped_total", "Requests that piggybacked on an in-flight execution, by class.", []string{"class"},
		e.classCounterVec(func(c *classCounters) int64 { return c.deduped.Load() }))
	r.CounterVec("arch21_executions_total", "Underlying experiment executions, by class.", []string{"class"},
		e.classCounterVec(func(c *classCounters) int64 { return c.executions.Load() }))
	r.CounterVec("arch21_sheds_total", "Requests rejected at admission, by class.", []string{"class"},
		e.classCounterVec(func(c *classCounters) int64 { return c.sheds.Load() }))
	le, outcomes := stats.DefaultLatencyBuckets(), []string{"hit", "cold"}
	r.Histogram("arch21_request_duration_seconds",
		"Request latency by class and outcome (hit: served from cache; cold: executed or deduplicated). Counts are exact; hit latencies are sampled: a single request's warm hit is timed once in 16 per processor, and the hits between repeat that processor's last measured hit.",
		[]string{"class", "outcome"}, func() []obs.HistSample {
			out := make([]obs.HistSample, 0, 2*len(e.classes))
			for _, class := range admit.Classes() {
				cc := &e.classes[class]
				for i, h := range []*stats.AtomicHistogram{cc.hit, cc.cold} {
					// Every le bound is a fine-bucket edge: exact.
					s := h.Snapshot().Rebucket(le)
					out = append(out, obs.HistSample{Values: []string{class.String(), outcomes[i]},
						Bounds: s.Bounds, CumCounts: s.CumCounts, Count: s.Count, Sum: s.Sum})
				}
			}
			return out
		})
	r.GaugeVec("arch21_queue_depth", "Current scheduler queue depth by class.", []string{"class"},
		func() []obs.Sample {
			st := e.sched.Stats()
			out := make([]obs.Sample, 0, len(st.Classes))
			for _, class := range admit.Classes() {
				out = append(out, obs.Sample{Values: []string{class.String()},
					Value: float64(st.Classes[class.String()].Queued)})
			}
			return out
		})
	r.Gauge("arch21_workers", "Scheduler concurrency bound.",
		func() float64 { return float64(e.sched.Workers()) })
	r.Gauge("arch21_workers_busy", "Workers currently running a task.",
		func() float64 { return float64(e.sched.Stats().Running) })
	r.Gauge("arch21_batch_rate", "Batch token-bucket rate in tokens per second (0 means unthrottled).",
		func() float64 { return e.sched.BatchRate() })
	r.Gauge("arch21_batch_tokens", "Batch token-bucket fill.",
		func() float64 { return e.sched.Stats().BatchTokens })
	r.Gauge("arch21_cache_entries", "Live cache entries across shards.",
		func() float64 { return float64(e.cache.Stats().Entries) })
	r.Counter("arch21_cache_lookup_hits_total", "Cache lookups that found a live entry.",
		func() float64 { return float64(e.cache.Stats().Hits) })
	r.Counter("arch21_cache_lookup_misses_total", "Cache lookups that found nothing servable.",
		func() float64 { return float64(e.cache.Stats().Misses) })
	r.Gauge("arch21_cache_bytes", "Resident slab-arena bytes across shards (headers plus payloads, dead space included until compaction).",
		func() float64 { return float64(e.cache.Stats().Bytes) })
	r.Counter("arch21_cache_evicted_total", "Live cache entries evicted by the byte-budget reclaimer.",
		func() float64 { return float64(e.cache.Stats().Evicted) })
	r.Gauge("arch21_snapshot_enabled", "Whether the tier-2 disk cache is configured (0 or 1).",
		func() float64 {
			if e.snapPath != "" {
				return 1
			}
			return 0
		})
	r.Counter("arch21_snapshot_loaded_total", "Entries warm-started from the tier-2 snapshot at boot.",
		func() float64 { return float64(e.snapLoaded.Load()) })
	r.Counter("arch21_snapshot_saves_total", "Tier-2 snapshot writes.",
		func() float64 { return float64(e.snapSaves.Load()) })
	r.Counter("arch21_snapshot_save_failures_total", "Failed tier-2 snapshot writes (alert on this).",
		func() float64 { return float64(e.snapSaveFails.Load()) })
	r.Counter("arch21_events_total", "Control-plane events recorded (the ring retains the newest).",
		func() float64 { return float64(e.events.Total()) })
	// The per-tenant plane exists only when a tenant vocabulary was
	// configured: label values come from Config.Tenants plus the "other"
	// fold (obs.BoundedLabels), never from request data, so series
	// cardinality is bounded by operator config.
	if e.tenants != nil {
		r.Gauge("arch21_tenants", "Configured tenant vocabulary size, including the \"other\" overflow bucket.",
			func() float64 { return float64(e.tenants.Len()) })
		r.CounterVec("arch21_tenant_requests_total", "Validated requests by tenant (unlisted and untagged tenants fold into \"other\").", []string{"tenant"},
			e.tenantCounterVec(func(t *tenantCounters) int64 { return t.requests() }))
		r.CounterVec("arch21_tenant_cache_hits_total", "Requests answered from cache, by tenant.", []string{"tenant"},
			e.tenantCounterVec(func(t *tenantCounters) int64 { return t.hits.Load() }))
		r.CounterVec("arch21_tenant_sheds_total", "Requests rejected at admission, by tenant.", []string{"tenant"},
			e.tenantCounterVec(func(t *tenantCounters) int64 { return t.sheds.Load() }))
	}
	return r
}

// tenantCounterVec renders one per-tenant counter family from a field
// selector over the bounded tenant vocabulary.
func (e *Engine) tenantCounterVec(get func(*tenantCounters) int64) func() []obs.Sample {
	return func() []obs.Sample {
		out := make([]obs.Sample, 0, len(e.tenantBooks))
		for i := range e.tenantBooks {
			out = append(out, obs.Sample{
				Values: []string{e.tenants.Value(i)},
				Value:  float64(get(&e.tenantBooks[i])),
			})
		}
		return out
	}
}

// ControlRequest is the POST /control body: each knob is optional, only
// the ones present are applied, atomically per knob (there is no
// cross-knob transaction). The same body fans out verbatim from the
// routing front-end to every replica.
type ControlRequest struct {
	// BatchRate retunes the batch token bucket (tokens/s; 0 removes the
	// throttle).
	BatchRate *float64 `json:"batch_rate,omitempty"`
	// SLOMS retunes the feedback controller's p99 target in milliseconds.
	// Rejected when no controller is attached.
	SLOMS *float64 `json:"slo_ms,omitempty"`
}

// Empty reports whether the request carries no knob at all.
func (c ControlRequest) Empty() bool {
	return c.BatchRate == nil && c.SLOMS == nil
}

// DecodeControl is the one reader of a POST /control body: the engine's
// handler, the front-end's check before it fans out and the in-process
// replica all call it, so a body one of them refuses no replica applies.
// It is strict: an unknown field (a "policy" key from an older script
// among them), trailing data, or a body with no knob is an error.
func DecodeControl(body []byte) (ControlRequest, error) {
	var req ControlRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ControlRequest{}, fmt.Errorf("serve: bad control body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return ControlRequest{}, fmt.Errorf("serve: bad control body: data after the JSON object")
	}
	if req.Empty() {
		return ControlRequest{}, fmt.Errorf("serve: control request carries no knob (want batch_rate and/or slo_ms)")
	}
	return req, nil
}

// ControlAck reports what one replica applied, keyed by knob name.
type ControlAck struct {
	Applied map[string]string `json:"applied"`
}

// ApplyControl validates and applies a decoded control request and
// records one EventControl into the ring. All-or-nothing: validation of
// every present knob happens before any is applied.
func (e *Engine) ApplyControl(req ControlRequest) (ControlAck, error) {
	if req.BatchRate != nil {
		if r := *req.BatchRate; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			return ControlAck{}, fmt.Errorf("serve: bad batch_rate %v (want a finite rate >= 0)", *req.BatchRate)
		}
	}
	var sloHook func(time.Duration) error
	if req.SLOMS != nil {
		if ms := *req.SLOMS; math.IsNaN(ms) || math.IsInf(ms, 0) || ms <= 0 {
			return ControlAck{}, fmt.Errorf("serve: bad slo_ms %v (want a positive millisecond target)", *req.SLOMS)
		}
		e.sloMu.Lock()
		sloHook = e.sloHook
		e.sloMu.Unlock()
		if sloHook == nil {
			return ControlAck{}, fmt.Errorf("serve: no live controller attached; slo_ms cannot be retuned (start with -lc-slo)")
		}
	}

	ack := ControlAck{Applied: map[string]string{}}
	labels := map[string]string{}
	if req.BatchRate != nil {
		e.SetBatchRate(*req.BatchRate)
		v := strconv.FormatFloat(*req.BatchRate, 'g', -1, 64)
		ack.Applied["batch_rate"] = v
		labels["batch_rate"] = v
	}
	if req.SLOMS != nil {
		if err := sloHook(time.Duration(*req.SLOMS * float64(time.Millisecond))); err != nil {
			return ControlAck{}, err
		}
		v := strconv.FormatFloat(*req.SLOMS, 'g', -1, 64)
		ack.Applied["slo_ms"] = v
		labels["slo_ms"] = v
	}
	e.events.Record(obs.EventControl, labels, nil)
	return ack, nil
}

// ControlHandler serves POST /control: a ControlRequest body, applied
// live, answered with the ControlAck.
func (e *Engine) ControlHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpapi.WriteError(w, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed, "method not allowed")
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
		var req ControlRequest
		if err == nil {
			req, err = DecodeControl(body)
		}
		var ack ControlAck
		if err == nil {
			ack, err = e.ApplyControl(req)
		}
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, ack)
	})
}
