package router

// The front-end's observability plane: its own /metrics registry
// (router counters plus per-backend health, all collected at scrape
// time) and the cluster-wide POST /control fan-out. A control request
// hitting the front-end is forwarded verbatim to every backend that can
// take one (the optional Controller interface below), and the response
// reports each replica's ack or error — partial application is visible,
// never silent.

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// Controller is the optional backend capability POST /control fans out
// through: apply a serve.ControlRequest body (raw JSON, forwarded
// verbatim) and return the replica's ack body. EngineBackend applies it
// in-process; HTTPBackend POSTs it to the replica's /control. Backends
// without it (test doubles) are reported as unsupported, not errors.
type Controller interface {
	Control(ctx context.Context, body []byte) ([]byte, error)
}

// controlFanoutTimeout bounds one replica's control application — a
// retune is a small synchronous knob turn, not an experiment run.
const controlFanoutTimeout = 5 * time.Second

// ReplicaAck is one backend's row in the fan-out response.
type ReplicaAck struct {
	Backend string `json:"backend"`
	// OK reports whether the replica applied the request.
	OK bool `json:"ok"`
	// Ack is the replica's raw ack body when OK (the serve.ControlAck
	// JSON); Error the failure otherwise. "unsupported" marks a backend
	// that cannot take control requests at all.
	Ack   string `json:"ack,omitempty"`
	Error string `json:"error,omitempty"`
}

// Control fans a raw control body out to every backend concurrently and
// reports per-replica outcomes. It never fails as a whole: the caller
// reads the rows to see which replicas retuned.
func (r *Router) Control(ctx context.Context, body []byte) []ReplicaAck {
	acks := make([]ReplicaAck, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		ctl, ok := b.(Controller)
		if !ok {
			acks[i] = ReplicaAck{Backend: b.Name(), Error: "unsupported"}
			continue
		}
		wg.Add(1)
		go func(i int, name string, ctl Controller) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, controlFanoutTimeout)
			defer cancel()
			ack, err := ctl.Control(cctx, body)
			if err != nil {
				acks[i] = ReplicaAck{Backend: name, Error: err.Error()}
				return
			}
			acks[i] = ReplicaAck{Backend: name, OK: true, Ack: string(ack)}
		}(i, b.Name(), ctl)
	}
	wg.Wait()
	applied := 0
	for _, a := range acks {
		if a.OK {
			applied++
		}
	}
	r.events.Record(obs.EventControl,
		map[string]string{"scope": "cluster"},
		map[string]float64{"replicas": float64(len(acks)), "applied": float64(applied)})
	return acks
}

// MetricsRegistry returns the front-end's /metrics registry, built once.
func (r *Router) MetricsRegistry() *obs.Registry {
	r.obsOnce.Do(func() { r.obsReg = r.buildRegistry() })
	return r.obsReg
}

func (r *Router) buildRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	reg.Gauge("arch21_router_backends", "Configured replica count.",
		func() float64 { return float64(len(r.backends)) })
	reg.Counter("arch21_router_requests_total", "Requests routed through the front-end.",
		func() float64 { return float64(r.requests.Load()) })
	reg.Counter("arch21_router_failovers_total", "Attempts that moved past the owning replica.",
		func() float64 { return float64(r.failovers.Load()) })
	reg.Counter("arch21_router_exhausted_total", "Requests that failed on every candidate replica.",
		func() float64 { return float64(r.exhausted.Load()) })
	perRow := func(get func(BackendStatus) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(r.backends))
			for b := range r.backends {
				row := r.status(b)
				out = append(out, obs.Sample{Values: []string{row.Name}, Value: get(row)})
			}
			return out
		}
	}
	reg.GaugeVec("arch21_backend_up", "Whether the replica is admitting requests (0 = ejected).",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 {
			if row.Ejected {
				return 0
			}
			return 1
		}))
	reg.CounterVec("arch21_backend_requests_total", "Requests admitted to the replica.",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.Requests) }))
	reg.CounterVec("arch21_backend_failures_total", "Replica failures counted toward ejection.",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.Failures) }))
	reg.CounterVec("arch21_backend_ejections_total", "Times the replica has been ejected.",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.Ejections) }))
	reg.GaugeVec("arch21_backend_latency_seconds", "Per-replica attempt latency scoreboard (EWMA).",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return row.latency }))
	reg.GaugeVec("arch21_backend_inflight", "Attempts currently outstanding against the replica.",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.Inflight) }))
	reg.CounterVec("arch21_backend_hedges_total", "Hedged backups fired because the replica's primary attempt exceeded its latency budget.",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.Hedges) }))
	reg.CounterVec("arch21_backend_hedge_wins_total", "Hedged backups that answered before the replica's primary attempt.",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.HedgeWins) }))
	reg.CounterVec("arch21_backend_stream_redials_total", "Times the replica's frame stream was re-established after the first dial (0 for backends without one).",
		[]string{"backend"}, perRow(func(row BackendStatus) float64 { return float64(row.redials) }))
	reg.Counter("arch21_batched_requests_total", "Entries answered inside an owner's pre-assembled frame (sweep fan-out, POST /batch).",
		func() float64 { return float64(r.batched.Load()) })
	reg.Histogram("arch21_batch_size", "Entries per batch frame shipped to a replica.",
		nil, func() []obs.HistSample {
			snap := r.batchSize.Snapshot()
			return []obs.HistSample{{Bounds: snap.Bounds, CumCounts: snap.CumCounts,
				Count: snap.Count, Sum: snap.Sum}}
		})
	reg.Counter("arch21_events_total", "Control-plane events recorded (the ring retains the newest).",
		func() float64 { return float64(r.events.Total()) })
	return reg
}
