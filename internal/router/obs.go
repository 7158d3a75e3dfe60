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
	perBackend := func(get func(*backendState) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(r.backends))
			for i := range r.backends {
				st := &r.state[i]
				st.mu.Lock()
				v := get(st)
				st.mu.Unlock()
				out = append(out, obs.Sample{Values: []string{r.backends[i].Name()}, Value: v})
			}
			return out
		}
	}
	reg.GaugeVec("arch21_backend_up", "Whether the replica is admitting requests (0 = ejected).",
		[]string{"backend"}, perBackend(func(st *backendState) float64 {
			if st.ejected {
				return 0
			}
			return 1
		}))
	reg.CounterVec("arch21_backend_requests_total", "Requests admitted to the replica.",
		[]string{"backend"}, perBackend(func(st *backendState) float64 { return float64(st.requests) }))
	reg.CounterVec("arch21_backend_failures_total", "Replica failures counted toward ejection.",
		[]string{"backend"}, perBackend(func(st *backendState) float64 { return float64(st.failures) }))
	reg.CounterVec("arch21_backend_ejections_total", "Times the replica has been ejected.",
		[]string{"backend"}, perBackend(func(st *backendState) float64 { return float64(st.ejections) }))
	perScore := func(get func(*score) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(r.backends))
			for i := range r.backends {
				out = append(out, obs.Sample{Values: []string{r.backends[i].Name()}, Value: get(&r.sb.scores[i])})
			}
			return out
		}
	}
	reg.GaugeVec("arch21_backend_latency_seconds", "Per-replica attempt latency scoreboard (EWMA).",
		[]string{"backend"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(r.backends))
			for i := range r.backends {
				mean, _, _ := r.sb.snapshot(i)
				out = append(out, obs.Sample{Values: []string{r.backends[i].Name()}, Value: mean})
			}
			return out
		})
	reg.GaugeVec("arch21_backend_inflight", "Attempts currently outstanding against the replica.",
		[]string{"backend"}, perScore(func(sc *score) float64 { return float64(sc.inflight.Load()) }))
	reg.CounterVec("arch21_backend_hedges_total", "Hedged backups fired because the replica's primary attempt exceeded its latency budget.",
		[]string{"backend"}, perScore(func(sc *score) float64 { return float64(sc.hedges.Load()) }))
	reg.CounterVec("arch21_backend_hedge_wins_total", "Hedged backups that answered before the replica's primary attempt.",
		[]string{"backend"}, perScore(func(sc *score) float64 { return float64(sc.hedgeWins.Load()) }))
	reg.CounterVec("arch21_backend_stream_redials_total", "Times the replica's frame stream was re-established after the first dial (0 for backends without one).",
		[]string{"backend"}, func() []obs.Sample {
			out := make([]obs.Sample, 0, len(r.backends))
			for _, b := range r.backends {
				var redials int64
				if c, ok := b.(carrier); ok {
					_, redials = c.Carrier()
				}
				out = append(out, obs.Sample{Values: []string{b.Name()}, Value: float64(redials)})
			}
			return out
		})
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
