// Package router turns the single-daemon serving stack into a shardable
// service: a consistent-hash request router fronting N serve backends —
// in-process serve.Engine shards and/or remote arch21d replicas over HTTP.
// Placement is replica-aware: the engine cache key for an (experiment,
// assignment) pair hashes to a position on an internal/cluster consistent
// ring, so every request for the same memoized entry lands on the same
// replica (each replica's tier-1 cache stays hot for exactly its key
// range, and a sweep's grid points execute exactly once cluster-wide).
// Per-backend health accounting ejects a replica after consecutive
// failures and lazily re-admits it after a successful probe; requests to
// an unhealthy or failing owner fail over — bounded — to the next
// distinct ring positions, so one wedged replica degrades capacity
// instead of availability. The router satisfies sweep.Server (through
// ServeEncodedBatch), so POST /sweep fans out through it unchanged, and
// internal/load measures it like any other target.
package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stats"
)

// ErrNoBackends is returned when every candidate replica for a key is
// ejected or failing.
var ErrNoBackends = errors.New("router: no healthy backend")

// errAttemptTimeout marks one attempt abandoned because the backend did
// not answer within Config.Timeout (a wedged replica must not stall the
// caller — or an entire sweep).
var errAttemptTimeout = errors.New("router: attempt timed out")

// DefaultTimeout is the default per-attempt bound, matching arch21d's
// write timeout for slow cold runs. HTTPBackend's transport deadline
// sits above it so the router — which knows how to fail over and eject —
// is always the layer that classifies slowness, not the HTTP client.
const DefaultTimeout = 5 * time.Minute

// Config parameterizes a Router.
type Config struct {
	// VNodes is the ring points per backend (default 64).
	VNodes int
	// Retries bounds failover attempts after the first (default: one per
	// remaining backend, i.e. len(backends)-1).
	Retries int
	// Timeout bounds one attempt's wall time (default 5m, matching the
	// daemon's write timeout for slow cold runs — set it above the
	// slowest legitimate cold execution, because an expiry is treated as
	// a replica failure: the router abandons the attempt, re-executes on
	// the successor, and counts it toward ejection; the abandoned call's
	// goroutine drains in the background when the backend eventually
	// answers).
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that ejects a
	// backend (default 3).
	FailThreshold int
	// ProbeAfter is how long an ejected backend waits before the next
	// request to it triggers a health probe for re-admission (default 1s).
	ProbeAfter time.Duration
	// HedgeFloor is the minimum hedge delay (default DefaultHedgeFloor,
	// 1ms): the scoreboard's adaptive budget never drops below it, so
	// warm microsecond traffic does not fire backups on scheduler noise.
	HedgeFloor time.Duration
	// DisableHedge turns hedged backup requests off entirely; the
	// scoreboard still tracks latency and the failover chain still works.
	DisableHedge bool
	// now is the clock; replaceable in tests.
	now func() time.Time
}

func (c *Config) setDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = time.Second
	}
	if c.HedgeFloor <= 0 {
		c.HedgeFloor = DefaultHedgeFloor
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// backendState is one backend's health accounting, guarded by its own
// mutex (health bookkeeping must not serialize request fan-out).
type backendState struct {
	mu          sync.Mutex
	consecFails int
	ejected     bool
	nextProbe   time.Time

	requests  int64
	failures  int64
	ejections int64
}

// Router routes requests to their owning replica by consistent hash.
type Router struct {
	cfg      Config
	backends []Backend
	ring     *cluster.ConsistentHash
	state    []backendState

	// sb is the per-replica latency scoreboard feeding hedge budgets and
	// latency-aware chain preference.
	sb *scoreboard

	// Request-path counters are atomics: a tier-1 hit on an in-process
	// backend is sub-microsecond, so a shared mutex here would serialize
	// exactly the traffic the router exists to spread.
	requests  atomic.Int64
	failovers atomic.Int64
	exhausted atomic.Int64
	// hedges counts backup requests fired; hedgeWins those that answered
	// first. Hedges are accounted here — separately from requests and
	// failovers — so the engines' per-class conservation law still
	// balances: a hedge is an extra backend attempt, not an extra client
	// request.
	hedges    atomic.Int64
	hedgeWins atomic.Int64

	// co is the per-backend coalescing queue of the batched data plane
	// (nil per slot when the backend lacks DoBatch); batched counts
	// requests served through a coalesced flush, batchSize the per-flush
	// entry counts, batchFlushes the flushes by reason (full, window,
	// interactive).
	co           []*coalescer
	batched      atomic.Int64
	batchSize    *stats.AtomicHistogram
	batchFlushes [flushReasons]atomic.Int64

	// events records ejections, re-admissions, and control fan-outs.
	events *obs.Events

	obsOnce sync.Once
	obsReg  *obs.Registry
}

// New builds a router over the given backends. At least one is required.
func New(backends []Backend, cfg Config) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("router: need at least one backend")
	}
	cfg.setDefaults()
	if cfg.Retries <= 0 {
		cfg.Retries = len(backends) - 1
	}
	r := &Router{
		cfg:       cfg,
		backends:  backends,
		ring:      cluster.NewConsistentHash(len(backends), cfg.VNodes),
		state:     make([]backendState, len(backends)),
		sb:        newScoreboard(len(backends), cfg.HedgeFloor, cfg.Timeout),
		batchSize: stats.NewAtomicHistogram(batchSizeBounds),
		events:    obs.NewEvents(0),
	}
	r.co = make([]*coalescer, len(backends))
	for i, b := range backends {
		if bb, ok := b.(BatchBackend); ok {
			c := &coalescer{r: r, b: i, bb: bb, wake: make(chan struct{}, 1)}
			if eb, isEng := b.(*EngineBackend); isEng {
				c.direct, c.eng = true, eb.Engine()
			}
			r.co[i] = c
		}
	}
	return r, nil
}

// Events returns the front-end's control-plane event ring (never nil).
func (r *Router) Events() *obs.Events { return r.events }

// RouteKey derives the placement key for one (experiment, assignment)
// pair — the Key of its interned request identity: the engine's cache key
// when the pair resolves (so placement agrees with memoization, and
// explicit-default assignments route with the bare-ID traffic), otherwise
// the ID plus sorted assignments, leaving the schema error to the owner.
func RouteKey(id string, p core.Params) string { return serve.IdentOf(id, p).Key() }

// Owner returns the backend index that owns a routing key (ignoring
// health) — what placement tests and rebalancing math inspect.
func (r *Router) Owner(key string) int { return r.ring.Place(cluster.HashString(key)) }

// verdict classifies one attempt's outcome; it encodes the router's
// whole error taxonomy in one place so the plain failover path and the
// hedged race apply identical semantics.
type verdict int

const (
	// verdictOK: success — return the response, reset health accounting.
	verdictOK verdict = iota
	// verdictCtx: the caller is gone or out of budget — return without
	// accounting; failing over would re-spend a dead request's work.
	verdictCtx
	// verdictReturn: a client error or deadline shed — the caller's
	// fault, identical on every replica, so no failover and no ejection
	// (the replica answered deliberately: that is a success for health
	// accounting).
	verdictReturn
	// verdictFailover: a queue-full shed (in-process ShedError, or a
	// replica's 503) is genuine pressure, so it does fail over — a
	// sibling's queue may have room — but it is a *deliberate QoS verdict
	// from a live replica*, not a fault: counting it toward ejection
	// would turn sustained overload into a cascade (shedding replicas
	// ejected, their keys dumped on the siblings, which then shed and get
	// ejected too, until nothing serves). Health accounting stays
	// untouched either way: not a failure, and not a success that would
	// mask a flapping replica's real errors.
	verdictFailover
	// verdictFailure: a real replica failure — fail over and count it
	// toward ejection.
	verdictFailure
)

func classify(err error) verdict {
	switch {
	case err == nil:
		return verdictOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return verdictCtx
	}
	var shed *admit.ShedError
	if errors.As(err, &shed) && shed.Deadline {
		return verdictReturn
	}
	if errors.Is(err, serve.ErrUnknownExperiment) || errors.Is(err, serve.ErrBadParams) || isHTTPClientError(err) {
		return verdictReturn
	}
	if errors.Is(err, admit.ErrShed) || isHTTPStatus(err, 503) {
		return verdictFailover
	}
	return verdictFailure
}

// ServeWith routes one request to the replica owning its cache key —
// or, when the scoreboard shows the owner consistently slower than its
// first successor, successor-first along the same chain — failing over
// along the ring on error, ejection, or timeout. The first attempt of
// an interactive request is hedge-protected: if it outlives the
// scoreboard's adaptive budget, a backup fires to the next distinct
// replica, first response wins, and the loser is canceled through its
// context. Batch requests never hedge — a hedge buys tail latency with
// duplicate work, and a backup racing a cold sweep point on a sibling
// would execute it twice, breaking the sweep path's exactly-once
// property. The context's QoS envelope
// (class, deadline, cancellation) rides along to the backend — over HTTP
// it travels as the X-Arch21-Class and budget-decremented
// X-Arch21-Deadline-MS headers, with backups marked X-Arch21-Hedge. A
// shed answered by a replica (429) is a client-visible QoS verdict, not
// a replica failure: no ejection, no failover.
func (r *Router) ServeWith(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.requests.Add(1)
	return r.serveChainKeyed(ctx, id, p, RouteKey(id, p))
}

// serveChainKeyed is the classic per-request chain walk: the body of
// ServeWith minus the top-level request count and with the routing key
// already derived, so the batched data plane (falling back after a
// coalesced miss) can reuse it without double-counting the request.
func (r *Router) serveChainKeyed(ctx context.Context, id string, p core.Params, key string) (serve.Response, error) {
	chain := r.ring.PlaceK(cluster.HashString(key), 1+r.cfg.Retries)
	r.sb.prefer(chain)
	var lastErr error
	var tried []int // backends already consumed, by the loop or a hedge
	attempted := func(b int) bool {
		for _, t := range tried {
			if t == b {
				return true
			}
		}
		return false
	}
	for i, b := range chain {
		if attempted(b) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return serve.Response{}, err
		}
		if !r.admit(b) {
			continue
		}
		if len(tried) > 0 {
			r.failovers.Add(1)
		}
		tried = append(tried, b)

		var (
			resp   serve.Response
			err    error
			winner = b
		)
		if len(tried) == 1 {
			// Only the first admitted attempt hedges: one backup per
			// request bounds the work amplification at 2x.
			var hedgedOn int
			resp, err, winner, hedgedOn = r.doHedged(ctx, b, chain[i+1:], id, p)
			if hedgedOn >= 0 {
				tried = append(tried, hedgedOn)
			}
		} else {
			resp, err = r.do(ctx, b, id, p)
		}

		switch classify(err) {
		case verdictOK:
			r.noteSuccess(winner)
			return resp, nil
		case verdictCtx:
			return serve.Response{}, err
		case verdictReturn:
			r.noteSuccess(winner)
			return serve.Response{}, err
		case verdictFailover:
			lastErr = err
		case verdictFailure:
			r.noteFailure(winner)
			lastErr = err
		}
	}
	r.exhausted.Add(1)
	if lastErr == nil {
		return serve.Response{}, fmt.Errorf("%w for key %q (all ejected)", ErrNoBackends, key)
	}
	return serve.Response{}, fmt.Errorf("router: key %q failed on all %d candidates: %w", key, len(chain), lastErr)
}

// Serve routes a default-parameter interactive request.
func (r *Router) Serve(id string) (serve.Response, error) {
	return r.ServeWith(context.Background(), id, nil)
}

type outcome struct {
	resp serve.Response
	err  error
}

// launch starts one tracked attempt: in-flight accounting around the
// call, the latency observed into the scoreboard on success — and on
// abandonment (the returned cancel, used when a hedge wins or the
// attempt timer expires): the elapsed time is a lower bound on the true
// latency, folded in only when it raises the estimate (see
// scoreboard.observeFloor), and without it a replica whose every
// attempt is cut short by a winning backup would keep a stale fast
// score forever. Organic failures feed health accounting instead; their
// wall time says nothing about serving latency.
func (r *Router) launch(ctx context.Context, b int, id string, p core.Params, hedge bool) (<-chan outcome, context.CancelFunc) {
	actx, cancel := context.WithCancel(ctx)
	if hedge {
		actx = httpapi.WithHedge(actx)
	}
	ch := make(chan outcome, 1)
	sc := &r.sb.scores[b]
	sc.inflight.Add(1)
	go func() {
		t0 := time.Now()
		resp, err := r.backends[b].Do(actx, id, p)
		elapsed := time.Since(t0)
		sc.inflight.Add(-1)
		if err == nil {
			r.sb.observe(b, elapsed)
		} else if errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// Abandoned by us (hedge win or attempt timer), not by the
			// caller: the elapsed time is a lower bound on the true
			// latency, folded in only when it raises the estimate.
			r.sb.observeFloor(b, elapsed)
		}
		ch <- outcome{resp, err}
	}()
	return ch, cancel
}

// do runs one attempt under the per-attempt timeout. A backend that
// neither answers nor errors within the window is treated as failed and
// the attempt is canceled through its context — the PR 5 plumbing makes
// the abandoned call unwind at its next iteration boundary instead of
// draining in the background. The goroutine-per-attempt is the price of
// hang protection for synchronous backends; the timer is stopped eagerly
// so a fast hit does not leave a multi-minute timer live until GC.
func (r *Router) do(ctx context.Context, b int, id string, p core.Params) (serve.Response, error) {
	ch, cancel := r.launch(ctx, b, id, p, false)
	defer cancel()
	timer := time.NewTimer(r.cfg.Timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.resp, out.err
	case <-ctx.Done():
		return serve.Response{}, ctx.Err()
	case <-timer.C:
		return serve.Response{}, fmt.Errorf("%w after %v on %s", errAttemptTimeout, r.cfg.Timeout, r.backends[b].Name())
	}
}

// doHedged runs the hedge-protected first attempt: the primary launches
// immediately; if it outlives the scoreboard's adaptive budget, one
// backup fires to the next distinct untried replica in rest, and the
// first usable answer (success, or a client/deadline verdict — identical
// on every replica) wins while the loser is canceled through its
// context. A primary that *fails* before the budget expires returns
// without hedging — failures belong to the failover path, hedging is for
// slowness — and 4xx verdicts are never hedged: by the time one could
// fire, the request's fate is already decided on every replica.
//
// Returns the deciding outcome, the backend it came from (so the caller
// applies health accounting to the decider), and the backup's index when
// one was launched (-1 otherwise; the caller marks it consumed). When
// both attempts fail, the loser's health accounting is applied here and
// the later outcome is returned for the caller's taxonomy.
func (r *Router) doHedged(ctx context.Context, b int, rest []int, id string, p core.Params) (serve.Response, error, int, int) {
	// Only interactive traffic hedges. A hedge buys tail latency with
	// duplicate work, which batch traffic by definition does not want —
	// and a backup racing a cold run on a sibling would execute the same
	// grid point twice, breaking the sweep path's exactly-once-
	// cluster-wide property. Batch still gets the failover chain and
	// scoreboard demotion.
	hb, delay := -1, time.Duration(0)
	if !r.cfg.DisableHedge && admit.ClassFrom(ctx) == admit.Interactive {
		for _, c := range rest {
			if c != b {
				if d, ok := r.sb.hedgeDelay(b, c); ok {
					hb, delay = c, d
				}
				break
			}
		}
	}

	pch, pcancel := r.launch(ctx, b, id, p, false)
	defer pcancel()
	if hb < 0 {
		// No candidate or no trusted budget: plain bounded attempt.
		timer := time.NewTimer(r.cfg.Timeout)
		defer timer.Stop()
		select {
		case out := <-pch:
			return out.resp, out.err, b, -1
		case <-ctx.Done():
			return serve.Response{}, ctx.Err(), b, -1
		case <-timer.C:
			return serve.Response{}, fmt.Errorf("%w after %v on %s", errAttemptTimeout, r.cfg.Timeout, r.backends[b].Name()), b, -1
		}
	}

	overall := time.NewTimer(r.cfg.Timeout)
	defer overall.Stop()
	hedgeTimer := time.NewTimer(delay)
	defer hedgeTimer.Stop()

	var (
		hch      <-chan outcome
		hcancel  context.CancelFunc
		hedged   = -1   // backup index once launched
		pFailed  bool   // primary failed while the backup was still pending (accounted here)
		inFlight = true // primary still pending
	)
	defer func() {
		if hcancel != nil {
			hcancel()
		}
	}()
	for {
		select {
		case out := <-pch:
			pch = nil
			inFlight = false
			switch v := classify(out.err); v {
			case verdictOK, verdictCtx, verdictReturn:
				// First usable answer wins; the deferred cancel abandons a
				// straggling backup.
				return out.resp, out.err, b, hedged
			default:
				if hch == nil {
					// Failed with no backup pending (either none fired, or
					// the backup already failed and was accounted): the
					// caller's taxonomy owns this outcome.
					return out.resp, out.err, b, hedged
				}
				// The backup is in flight and now decides the request; the
				// primary's failure is accounted here so it still counts
				// toward ejection.
				if v == verdictFailure {
					r.noteFailure(b)
				}
				pFailed = true
			}
		case out := <-hch:
			hch = nil
			switch v := classify(out.err); v {
			case verdictOK, verdictReturn:
				r.hedgeWins.Add(1)
				r.sb.scores[b].hedgeWins.Add(1)
				return out.resp, out.err, hb, hedged
			case verdictCtx:
				// The backup observed the caller's cancellation; nothing
				// to account and nothing left to win.
				return out.resp, out.err, hb, hedged
			default:
				if pFailed {
					// Both legs failed; the backup's outcome is the later
					// word — hand it to the caller's taxonomy.
					return out.resp, out.err, hb, hedged
				}
				// The backup failed first; the primary still owns the
				// request, so account the backup here and keep waiting.
				if v == verdictFailure {
					r.noteFailure(hb)
				}
			}
		case <-hedgeTimer.C:
			if hch != nil || hedged >= 0 || !inFlight {
				continue
			}
			if !r.admit(hb) {
				// The backup target is ejected and not probeable: the
				// primary stays on its own, still bounded by the overall
				// timer.
				continue
			}
			r.hedges.Add(1)
			r.sb.scores[b].hedges.Add(1)
			hedged = hb
			hch, hcancel = r.launch(ctx, hb, id, p, true)
		case <-ctx.Done():
			return serve.Response{}, ctx.Err(), b, hedged
		case <-overall.C:
			// Attribute the timeout to whichever leg is still pending: the
			// primary normally, the backup when the primary already failed
			// and was accounted above (charging b twice for one request
			// would double-count toward ejection).
			from := b
			if pFailed {
				from = hb
			}
			return serve.Response{}, fmt.Errorf("%w after %v on %s", errAttemptTimeout, r.cfg.Timeout, r.backends[from].Name()), from, hedged
		}
	}
}

// admit reports whether backend b may take a request now. Ejected
// backends stay dark until ProbeAfter has elapsed, then one Check probe
// decides: success re-admits, failure re-arms the probe timer.
func (r *Router) admit(b int) bool {
	st := &r.state[b]
	st.mu.Lock()
	if !st.ejected {
		st.requests++
		st.mu.Unlock()
		return true
	}
	now := r.cfg.now()
	if now.Before(st.nextProbe) {
		st.mu.Unlock()
		return false
	}
	// Re-arm before probing so concurrent callers don't stampede the
	// sick backend with probes.
	st.nextProbe = now.Add(r.cfg.ProbeAfter)
	st.mu.Unlock()

	if err := r.backends[b].Check(); err != nil {
		return false
	}
	st.mu.Lock()
	st.ejected = false
	st.consecFails = 0
	st.requests++
	st.mu.Unlock()
	r.events.Record(obs.EventReadmit,
		map[string]string{"backend": r.backends[b].Name()}, nil)
	return true
}

func (r *Router) noteSuccess(b int) {
	st := &r.state[b]
	st.mu.Lock()
	st.consecFails = 0
	st.mu.Unlock()
}

func (r *Router) noteFailure(b int) {
	st := &r.state[b]
	st.mu.Lock()
	st.failures++
	st.consecFails++
	ejectedNow := false
	if !st.ejected && st.consecFails >= r.cfg.FailThreshold {
		st.ejected = true
		st.ejections++
		st.nextProbe = r.cfg.now().Add(r.cfg.ProbeAfter)
		ejectedNow = true
	}
	fails := st.consecFails
	st.mu.Unlock()
	if ejectedNow {
		r.events.Record(obs.EventEjection,
			map[string]string{"backend": r.backends[b].Name()},
			map[string]float64{"consecutive_failures": float64(fails)})
	}
}

// BackendStatus is one backend's health and scoreboard row in Metrics.
type BackendStatus struct {
	Name      string `json:"name"`
	Ejected   bool   `json:"ejected"`
	Requests  int64  `json:"requests"`
	Failures  int64  `json:"failures"`
	Ejections int64  `json:"ejections"`
	// LatencyEWMAMS is the scoreboard's latency estimate; Inflight the
	// attempts currently outstanding against the replica.
	LatencyEWMAMS float64 `json:"latency_ewma_ms"`
	Inflight      int64   `json:"inflight"`
	// Hedges counts backups fired because this replica's primary attempt
	// ran long; HedgeWins those backups that answered first.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Transport is the carrier a wire backend ships batch frames over
	// ("stream" or "http"; empty for in-process backends).
	Transport string `json:"transport,omitempty"`
}

// carrier is the optional backend capability the transport row and the
// arch21_backend_stream_redials_total counter read (HTTPBackend.Carrier).
type carrier interface {
	Carrier() (transport string, redials int64)
}

// Metrics is a point-in-time router snapshot.
type Metrics struct {
	// Backends is the replica count; VNodes the ring points per replica.
	Backends int `json:"backends"`
	VNodes   int `json:"vnodes"`
	// Requests counts routed requests; Failovers attempts that moved past
	// the owner; Exhausted requests that failed on every candidate.
	Requests  int64 `json:"requests"`
	Failovers int64 `json:"failovers"`
	Exhausted int64 `json:"exhausted"`
	// Hedges counts backup requests fired; HedgeWins those whose answer
	// beat the primary attempt. Accounted separately from Requests and
	// Failovers: a hedge is an extra backend attempt, not an extra
	// client request, so the engines' conservation law still balances.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Health is per-backend status, in backend order.
	Health []BackendStatus `json:"health"`
}

// Metrics returns current counters and per-backend health.
func (r *Router) Metrics() Metrics {
	m := Metrics{
		Backends:  len(r.backends),
		VNodes:    r.cfg.VNodes,
		Requests:  r.requests.Load(),
		Failovers: r.failovers.Load(),
		Exhausted: r.exhausted.Load(),
		Hedges:    r.hedges.Load(),
		HedgeWins: r.hedgeWins.Load(),
	}
	for i := range r.backends {
		st := &r.state[i]
		st.mu.Lock()
		row := BackendStatus{
			Name:      r.backends[i].Name(),
			Ejected:   st.ejected,
			Requests:  st.requests,
			Failures:  st.failures,
			Ejections: st.ejections,
		}
		st.mu.Unlock()
		mean, _, _ := r.sb.snapshot(i)
		sc := &r.sb.scores[i]
		row.LatencyEWMAMS = mean * 1e3
		row.Inflight = sc.inflight.Load()
		row.Hedges = sc.hedges.Load()
		row.HedgeWins = sc.hedgeWins.Load()
		if c, ok := r.backends[i].(carrier); ok {
			row.Transport, _ = c.Carrier()
		}
		m.Health = append(m.Health, row)
	}
	return m
}
