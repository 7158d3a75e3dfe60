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
	"net/http"
	"slices"
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
// ejected or failing (503 no_backends).
var ErrNoBackends error = &httpapi.StatusError{Status: http.StatusServiceUnavailable,
	Code: httpapi.CodeNoBackends, Msg: "router: no healthy backend"}

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
	// answers). An attempt on a bare in-process engine runs inline on
	// the caller's goroutine and is bounded by the caller's context only.
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

	// engs[b] is backend b's engine when b is a bare in-process
	// EngineBackend, nil otherwise: an attempt on one is served inline
	// on the caller's goroutine (serveInline).
	engs []*serve.Engine
	// batched counts entries answered inside an owner's pre-assembled
	// frame (ServeEncodedBatch); batchSize the entries per exchange.
	batched   atomic.Int64
	batchSize *stats.AtomicHistogram

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
	r.engs = make([]*serve.Engine, len(backends))
	for i, b := range backends {
		if eb, isEng := b.(*EngineBackend); isEng {
			r.engs[i] = eb.Engine()
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

// classify judges an attempt's error on the status the one mapping
// (httpapi.ErrorStatus) gives it, whichever frame or replica it came from:
// 4xx is final, 503 fails over, anything else is a failure.
func classify(err error) verdict {
	switch {
	case err == nil:
		return verdictOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return verdictCtx
	}
	switch status, _, _ := httpapi.ErrorStatus(err, http.StatusBadGateway); {
	case status >= 400 && status < 500:
		return verdictReturn
	case status == http.StatusServiceUnavailable:
		return verdictFailover
	}
	return verdictFailure
}

// ServeEncoded routes one request to the replica owning its cache key —
// or, when the scoreboard shows the owner consistently slower than its
// first successor, successor-first along the same chain — failing over
// along the ring on error, ejection, or timeout, and returns the
// replica's encoded payload without a decode/re-encode at this hop.
// Every attempt is a frame of one under the caller's context, so its QoS
// envelope (class, tenant, hedge marker, hop-decremented deadline,
// cancellation) rides to the backend. An attempt on a bare in-process
// engine runs on this goroutine (serveInline); any other is launched,
// bounded by Config.Timeout, and — the first attempt of an interactive
// request only — hedge-protected (doHedged has the rule and its
// reasons). A shed answered by a replica (429) is a client-visible QoS
// verdict, not a replica failure: no ejection, no failover. Satisfies
// load.Server, so in-process load generation measures exactly this path.
func (r *Router) ServeEncoded(ctx context.Context, id string, p core.Params) (serve.RawResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.requests.Add(1)
	out := r.serveChainKeyed(ctx, itemOf(serve.IdentOf(id, p), admit.ClassFrom(ctx)), -1, nil, false)
	return out.RawResponse, out.Err
}

// itemOf is the frame entry of an interned request served under class.
func itemOf(ident *serve.Identity, class admit.Class) serve.BatchItem {
	return serve.BatchItem{ID: ident.ID(), Params: ident.Params(), Class: class, Ident: ident}
}

// decodeResponse materializes an encoded outcome (one DecodeResult).
func decodeResponse(rr serve.RawResponse) (serve.Response, error) {
	res, err := rr.Result()
	if err != nil {
		return serve.Response{}, fmt.Errorf("router: bad result payload: %v", err)
	}
	return serve.Response{ID: rr.ID, Params: rr.Params, Key: rr.Key, Class: rr.Class,
		Result: res, CacheHit: rr.CacheHit, Shared: rr.Shared, Latency: rr.Latency}, nil
}

// serveChainKeyed is the chain walk: ServeEncoded minus the request
// count, so a pre-assembled frame's fallback reuses it without counting
// the request twice. answeredBy >= 0 is a replica that already answered
// this entry with prior, a failover-worthy error inside a frame: the walk
// starts past it, and its next attempt is a failover. frame marks an
// entry of a pre-assembled frame, which never hedges (DESIGN §7).
func (r *Router) serveChainKeyed(ctx context.Context, it serve.BatchItem, answeredBy int, prior error, frame bool) serve.BatchOutcome {
	var chainBuf, triedBuf [8]int // a chain is one entry per backend: no heap for a small cluster
	chain := r.ring.PlaceK(chainBuf[:0], it.Ident.Hash(), 1+r.cfg.Retries)
	r.sb.prefer(chain)
	lastErr := prior
	tried := triedBuf[:0] // backends already consumed, by the loop, a hedge or the frame
	if answeredBy >= 0 {
		tried = append(tried, answeredBy)
	}
	for i, b := range chain {
		if slices.Contains(tried, b) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return serve.BatchOutcome{Err: err}
		}
		if !r.admit(b) {
			continue
		}
		if len(tried) > 0 {
			r.failovers.Add(1)
		}
		tried = append(tried, b)

		var out serve.BatchOutcome
		winner := b
		if r.engs[b] != nil {
			out = r.serveInline(ctx, b, it)
		} else {
			// Only the first admitted attempt hedges: one backup per
			// request bounds the work amplification at 2x.
			var rest []int
			if len(tried) == 1 && !frame {
				rest = chain[i+1:]
			}
			var hedgedOn int
			out, winner, hedgedOn = r.doHedged(ctx, b, rest, it)
			if hedgedOn >= 0 {
				tried = append(tried, hedgedOn)
			}
		}

		switch classify(out.Err) {
		case verdictOK, verdictReturn:
			r.noteSuccess(winner)
			return out
		case verdictCtx:
			return out
		case verdictFailover:
			lastErr = out.Err
		case verdictFailure:
			r.noteFailure(winner)
			lastErr = out.Err
		}
	}
	r.exhausted.Add(1)
	if lastErr == nil {
		return serve.BatchOutcome{Err: fmt.Errorf("%w for key %q (all ejected)", ErrNoBackends, it.Ident.Key())}
	}
	return serve.BatchOutcome{Err: fmt.Errorf("router: key %q failed on all %d candidates: %w",
		it.Ident.Key(), len(chain), lastErr)}
}

// frameOfOne is the pooled one-entry frame an inline attempt is served
// through, so a warm routed hit allocates neither the item nor its
// outcome.
type frameOfOne struct {
	items [1]serve.BatchItem
	outs  [1]serve.BatchOutcome
}

var framePool = sync.Pool{New: func() any { return new(frameOfOne) }}

// serveInline is one attempt on a bare in-process engine, run on the
// caller's goroutine under the caller's context: no goroutine, no timer,
// no hedge. An in-process engine cannot transport-wedge, so there is
// nothing to abandon, and a backup would run on the same cores. The
// engine returns only once every entry is resolved, which is what makes
// the pooled frame reusable.
func (r *Router) serveInline(ctx context.Context, b int, it serve.BatchItem) serve.BatchOutcome {
	f := framePool.Get().(*frameOfOne)
	f.items[0] = it
	outs, err := r.exchange(ctx, b, f.items[:], f.outs[:0])
	out := serve.BatchOutcome{Err: err}
	if err == nil {
		out = outs[0]
	}
	*f = frameOfOne{}
	framePool.Put(f)
	return out
}

// exchange ships one frame to backend b — a pre-assembled owner group
// or a chain attempt's frame of one — and keeps the books every exchange
// shares, here and nowhere else: the frame-size histogram, the backend's
// request count, its in-flight gauge, the outcome-count check, and the
// scoreboard's latency sample (a completed exchange only: one cut short
// by its context says nothing about serving latency). Bounding the
// exchange and judging what its error means for the replica's health
// stay with the caller, who knows whose context it runs under. A bare
// in-process engine is served through its buffer-reusing multi-get,
// into buf (nil: a fresh slice).
func (r *Router) exchange(ctx context.Context, b int, items []serve.BatchItem, buf []serve.BatchOutcome) (outs []serve.BatchOutcome, err error) {
	n := int64(len(items))
	r.batchSize.Observe(float64(n))
	st := &r.state[b]
	st.mu.Lock()
	st.requests += n
	st.mu.Unlock()
	sc := &r.sb.scores[b]
	sc.inflight.Add(n)
	t0 := time.Now()
	if eng := r.engs[b]; eng != nil {
		outs = eng.ServeEncodedBatchInto(ctx, items, buf)
	} else {
		outs, err = r.backends[b].DoBatch(ctx, items)
	}
	elapsed := time.Since(t0)
	sc.inflight.Add(-n)
	if err == nil && len(outs) != len(items) {
		err = fmt.Errorf("router: %s: batch returned %d outcomes for %d items",
			r.backends[b].Name(), len(outs), len(items))
	}
	if err == nil && ctx.Err() == nil {
		r.sb.observe(b, elapsed)
	}
	return outs, err
}

// launch starts one tracked attempt — a frame of one through exchange —
// on a goroutine of its own, which is the price of hang protection: the
// caller can abandon a backend that neither answers nor honors its
// context. Abandonment (the returned cancel, used when a hedge wins or
// the attempt timer expires) reaches a remote replica as the stream's
// cancel message, and the elapsed time is then a lower bound on the true
// latency, folded in only when it raises the estimate (why:
// scoreboard.observeFloor). Organic failures feed health accounting
// instead; their wall time says nothing about serving latency.
func (r *Router) launch(ctx context.Context, b int, it serve.BatchItem, hedge bool) (<-chan serve.BatchOutcome, context.CancelFunc) {
	actx, cancel := context.WithCancel(ctx)
	if hedge {
		actx = httpapi.WithHedge(actx)
	}
	ch := make(chan serve.BatchOutcome, 1)
	go func() {
		t0 := time.Now()
		outs, err := r.exchange(actx, b, []serve.BatchItem{it}, nil)
		out := serve.BatchOutcome{Err: err}
		if err == nil {
			out = outs[0]
		}
		if errors.Is(out.Err, context.Canceled) && ctx.Err() == nil {
			// Abandoned by us, not by the caller.
			r.sb.observeFloor(b, time.Since(t0))
		}
		ch <- out
	}()
	return ch, cancel
}

// doHedged runs one bounded attempt on b, hedge-protected when rest
// offers a candidate: the primary launches immediately; if it outlives
// the scoreboard's adaptive budget, one backup fires to the next distinct
// untried replica in rest, and the first usable answer (success, or a
// client/deadline verdict — identical on every replica) wins while the
// loser is canceled through its context. With no candidate (a failover
// attempt passes none) or no trusted budget the hedge timer never fires
// and this is a plain attempt under Config.Timeout. The timers are
// stopped eagerly so a fast hit does not leave a multi-minute timer live
// until GC. A primary that *fails* before the budget expires returns
// without hedging — failures belong to the failover path, hedging is for
// slowness — and 4xx verdicts are never hedged: by the time one could
// fire, the request's fate is already decided on every replica.
//
// Returns the deciding outcome, the backend it came from (so the caller
// applies health accounting to the decider), and the backup's index when
// one was launched (-1 otherwise; the caller marks it consumed). When
// both attempts fail, the loser's health accounting is applied here and
// the later outcome is returned for the caller's taxonomy.
func (r *Router) doHedged(ctx context.Context, b int, rest []int, it serve.BatchItem) (serve.BatchOutcome, int, int) {
	// Only interactive traffic hedges. A hedge buys tail latency with
	// duplicate work, which batch traffic by definition does not want —
	// and a backup racing a cold run on a sibling would execute the same
	// grid point twice, breaking the sweep path's exactly-once-
	// cluster-wide property. Batch still gets the failover chain and
	// scoreboard demotion.
	hb, delay := -1, time.Duration(0)
	if !r.cfg.DisableHedge && it.Class == admit.Interactive {
		for _, c := range rest {
			if c != b {
				if d, ok := r.sb.hedgeDelay(b, c); ok {
					hb, delay = c, d
				}
				break
			}
		}
	}

	pch, pcancel := r.launch(ctx, b, it, false)
	defer pcancel()
	overall := time.NewTimer(r.cfg.Timeout)
	defer overall.Stop()
	var hedgeC <-chan time.Time // nil without a backup to fire: never ready
	if hb >= 0 {
		hedgeTimer := time.NewTimer(delay)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}

	var (
		hch      <-chan serve.BatchOutcome
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
			switch v := classify(out.Err); v {
			case verdictOK, verdictCtx, verdictReturn:
				// First usable answer wins; the deferred cancel abandons a
				// straggling backup.
				return out, b, hedged
			default:
				if hch == nil {
					// Failed with no backup pending (either none fired, or
					// the backup already failed and was accounted): the
					// caller's taxonomy owns this outcome.
					return out, b, hedged
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
			switch v := classify(out.Err); v {
			case verdictOK, verdictReturn:
				r.hedgeWins.Add(1)
				r.sb.scores[b].hedgeWins.Add(1)
				return out, hb, hedged
			case verdictCtx:
				// The backup observed the caller's cancellation; nothing
				// to account and nothing left to win.
				return out, hb, hedged
			default:
				if pFailed {
					// Both legs failed; the backup's outcome is the later
					// word — hand it to the caller's taxonomy.
					return out, hb, hedged
				}
				// The backup failed first; the primary still owns the
				// request, so account the backup here and keep waiting.
				if v == verdictFailure {
					r.noteFailure(hb)
				}
			}
		case <-hedgeC:
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
			hch, hcancel = r.launch(ctx, hb, it, true)
		case <-ctx.Done():
			return serve.BatchOutcome{Err: ctx.Err()}, b, hedged
		case <-overall.C:
			// Attribute the timeout to whichever leg is still pending: the
			// primary normally, the backup when the primary already failed
			// and was accounted above (charging b twice for one request
			// would double-count toward ejection).
			from := b
			if pFailed {
				from = hb
			}
			return serve.BatchOutcome{Err: fmt.Errorf("%w after %v on %s",
				errAttemptTimeout, r.cfg.Timeout, r.backends[from].Name())}, from, hedged
		}
	}
}

// admit reports whether backend b may take an exchange now. Ejected
// backends stay dark until ProbeAfter has elapsed, then one Check probe
// decides: success re-admits, failure re-arms the probe timer.
func (r *Router) admit(b int) bool {
	st := &r.state[b]
	st.mu.Lock()
	if !st.ejected {
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
