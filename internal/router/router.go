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
// ServeEncodedBatchInto), so POST /sweep fans out through it unchanged, and
// internal/load measures it like any other target.
package router

import (
	"context"
	"errors"
	"fmt"
	"maps"
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

// vnodes is the ring points per backend.
const vnodes = 64

// Config parameterizes a Router. Failover walks every replica's ring
// position in turn, so a chain is as long as the cluster; the hedge
// delay never drops below DefaultHedgeFloor.
type Config struct {
	// Timeout bounds one attempt's wall time (default 5m, matching the
	// daemon's write timeout for slow cold runs — set it above the
	// slowest legitimate cold execution, because an expiry is treated as
	// a replica failure: the router abandons the attempt, re-executes on
	// the successor, and counts it toward ejection). The bound is a
	// cancel of the attempt's context at Timeout, not a deadline, and the
	// backend returns once its context ends (the Backend contract), so
	// the caller's goroutine is free by then. An attempt on a bare
	// in-process engine is bounded by the caller's context only.
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that ejects a
	// backend (default 3).
	FailThreshold int
	// ProbeAfter is how long an ejected backend waits before the next
	// request to it triggers a health probe for re-admission (default 1s).
	ProbeAfter time.Duration
	// DisableHedge turns hedged backup requests off entirely; the
	// scoreboard still tracks latency and the failover chain still works.
	DisableHedge bool
	// now is the clock; replaceable in tests.
	now func() time.Time
}

func (c *Config) setDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// Router routes requests to their owning replica by consistent hash.
type Router struct {
	cfg      Config
	backends []Backend
	ring     *cluster.ConsistentHash

	// sb holds one row per replica: its health, its latency score
	// (feeding hedge budgets and chain preference) and its counters.
	sb *scoreboard

	// Request-path counters are atomics: a tier-1 hit on an in-process
	// backend is sub-microsecond, so a shared mutex here would serialize
	// exactly the traffic the router exists to spread. Hedges are
	// counted on the rows, apart from requests and failovers.
	requests  atomic.Int64
	failovers atomic.Int64
	exhausted atomic.Int64
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
	r := &Router{
		cfg:       cfg,
		backends:  backends,
		ring:      cluster.NewConsistentHash(len(backends), vnodes),
		sb:        newScoreboard(len(backends), DefaultHedgeFloor, cfg.Timeout),
		batchSize: stats.NewAtomicHistogram(batchSizeBounds),
		events:    obs.NewEvents(0),
	}
	for i, b := range backends {
		if eb, isEng := b.(*EngineBackend); isEng {
			r.sb.scores[i].eng = eb.eng
		}
	}
	return r, nil
}

// Events returns the front-end's control-plane event ring (never nil).
func (r *Router) Events() *obs.Events { return r.events }

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
// cancellation) rides to the backend, and every attempt runs on this
// goroutine. One on a bare in-process engine is a plain call (attempt);
// any other is bounded by Config.Timeout and — the first attempt of an
// interactive request only — hedge-protected. Only the backup gets a
// goroutine of its own, its timer's (doHedged has the rule and its
// reasons), and so does a demoted owner's canary (canary). A shed
// answered by a replica (429) is a client-visible QoS verdict, not a
// replica failure: no ejection, no failover. Satisfies load.Server, so
// in-process load generation measures exactly this path.
func (r *Router) ServeEncoded(ctx context.Context, id string, p core.Params) (serve.RawResponse, error) {
	out := r.serveOne(ctx, id, p)
	return out.RawResponse, out.Err
}

// serveOne is ServeEncoded keeping the outcome whole: its Reply, the body
// Raw aliases, is for a caller done with Raw to recycle (the /run handler).
func (r *Router) serveOne(ctx context.Context, id string, p core.Params) serve.BatchOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	r.requests.Add(1)
	return r.serveChainKeyed(ctx, itemOf(serve.IdentOf(id, p), admit.ClassFrom(ctx)), -1, nil, false)
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
	chain := r.ring.PlaceK(chainBuf[:0], it.Ident.Hash(), len(r.backends))
	if r.sb.prefer(chain) && !frame && r.hedges(it) {
		// A canary that may duplicate work runs beside the request, not
		// in front of it: the successor answers the caller.
		chain[0], chain[1] = chain[1], chain[0]
		go r.canary(ctx, chain[1], it)
	}
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
		if r.sb.scores[b].eng != nil {
			out = r.attempt(ctx, b, it)
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

// framePool holds the frames of one an attempt is served through, each with
// the outcome a bare engine serves into: a warm routed hit allocates neither.
var framePool = sync.Pool{New: func() any { return new(oneFrame) }}

type oneFrame struct {
	item [1]serve.BatchItem
	out  [1]serve.BatchOutcome
}

// attempt is one exchange of a frame of one with backend b, run on the
// calling goroutine under ctx. Frame and outcomes go back to their pools
// when the exchange returns: safe and prompt by the Backend contract (no
// item kept, the outcomes the caller's; it returns once ctx ends).
func (r *Router) attempt(ctx context.Context, b int, it serve.BatchItem) serve.BatchOutcome {
	f := framePool.Get().(*oneFrame)
	f.item[0] = it
	outs, err := r.exchange(ctx, b, f.item[:], f.out[:0])
	out := serve.BatchOutcome{Err: err}
	if err == nil {
		out = outs[0]
	}
	if r.sb.scores[b].eng == nil {
		putOuts(outs)
	}
	*f = oneFrame{}
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
// stay with the caller, who knows whose context it runs under, and so
// does the outcome slice (putOuts once copied). A bare in-process engine
// serves an attempt straight into buf, the frame of one's own outcome.
func (r *Router) exchange(ctx context.Context, b int, items []serve.BatchItem, buf []serve.BatchOutcome) (outs []serve.BatchOutcome, err error) {
	n := int64(len(items))
	r.batchSize.Observe(float64(n))
	sc := &r.sb.scores[b]
	sc.requests.Add(n)
	sc.inflight.Add(n)
	t0 := time.Now()
	if eng := sc.eng; eng != nil && buf != nil {
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

// errAbandoned is the cause a hedged race cancels its legs with once it
// is decided, so a leg can tell its abandonment from the caller's.
var errAbandoned = errors.New("router: attempt abandoned")

// hedgedRace is one bounded attempt's state (doHedged), under mu: each
// leg reports its answer and each timer its firing, and the report that
// decides the race cancels the legs' context, which abandons a leg still
// out and wakes the caller.
type hedgedRace struct {
	r       *Router
	ctx     context.Context // the legs': canceled once decided
	abandon context.CancelCauseFunc
	it      serve.BatchItem
	b, hb   int // the primary's backend; the backup's, -1 without one

	mu                        sync.Mutex
	out, failed, hedged, from int // legs out; the first to fail and the backup fired (-1: none); res's backend
	decided                   bool
	res                       serve.BatchOutcome
}

// leg runs one leg on this goroutine. An abandoned leg's elapsed time is a
// lower bound on the true latency, folded in only when it raises the
// estimate (why: scoreboard.observeFloor); organic failures feed health
// accounting instead.
func (h *hedgedRace) leg(b int, hedge bool) {
	ctx := h.ctx
	if hedge {
		ctx = httpapi.WithHedge(ctx)
	}
	t0 := time.Now()
	o := h.r.attempt(ctx, b, h.it)
	if h.report(b, o) && errors.Is(o.Err, context.Canceled) {
		if c := context.Cause(h.ctx); c == errAbandoned || c == errAttemptTimeout {
			h.r.sb.observeFloor(b, time.Since(t0))
		}
	}
}

// report applies leg b's answer by doHedged's rules, reporting whether
// the race was decided without it.
func (h *hedgedRace) report(b int, o serve.BatchOutcome) (abandoned bool) {
	h.mu.Lock()
	if h.out--; h.decided {
		h.mu.Unlock()
		return true
	}
	switch v := classify(o.Err); {
	case v == verdictOK || v == verdictReturn:
		if b != h.b {
			h.r.sb.scores[h.b].hedgeWins.Add(1)
		}
	case v == verdictCtx:
	case h.ctx.Err() != nil: // the caller is gone: its error, no blame
		o, b = serve.BatchOutcome{Err: h.ctx.Err()}, h.b
	case h.out > 0: // charged now; the other leg decides
		h.failed = b
		h.mu.Unlock()
		if v == verdictFailure {
			h.r.noteFailure(b)
		}
		return false
	}
	h.decideLocked(o, b, errAbandoned)
	return false
}

// decideLocked records o, charged to from, unless the race is decided;
// then it releases mu and cancels the legs' context with cause.
func (h *hedgedRace) decideLocked(o serve.BatchOutcome, from int, cause error) {
	if !h.decided {
		h.decided, h.res, h.from = true, o, from
	}
	h.mu.Unlock()
	h.abandon(cause)
}

// hedge is the hedge timer's: while the primary is the only leg out, the
// backup runs on this goroutine. An ejected, unprobeable backup leaves
// the primary on its own.
func (h *hedgedRace) hedge() {
	if h.ctx.Err() != nil || !h.r.admit(h.hb) {
		return
	}
	h.mu.Lock()
	if h.decided {
		h.mu.Unlock()
		return
	}
	h.hedged, h.out = h.hb, h.out+1
	h.r.sb.scores[h.b].hedges.Add(1)
	h.mu.Unlock()
	h.leg(h.hb, true)
}

// timeout is the overall timer's: the race is lost by a leg still out.
func (h *hedgedRace) timeout() {
	h.mu.Lock()
	from := h.b
	if h.failed == h.b {
		from = h.hb
	}
	h.decideLocked(serve.BatchOutcome{Err: fmt.Errorf("%w after %v on %s",
		errAttemptTimeout, h.r.cfg.Timeout, h.r.backends[from].Name())}, from, errAttemptTimeout)
}

// doHedged runs one bounded attempt on b, hedge-protected when rest
// offers a candidate: the primary leg runs on the caller's goroutine, and
// if it outlives the scoreboard's adaptive budget the hedge timer's own
// goroutine runs one backup on the next distinct untried replica in rest.
// Both legs run under one context, canceled when the race is decided or
// Config.Timeout runs out; a Backend returns once its context ends, so
// the caller is not held past either. The race keeps two facts: how many
// legs are still out, and which failed first.
//
//   - The first usable answer (success, or a client/deadline verdict —
//     identical on every replica) wins, and the other leg is canceled. A
//     backup's is a hedge win.
//   - A leg that fails while the other is still out is charged at once,
//     and the other leg decides.
//   - The last leg's answer goes to the caller's taxonomy.
//   - The overall timeout is charged to a leg that is still out.
//
// With no candidate (a failover attempt passes none) or no trusted
// budget there is no hedge timer. The timers are stopped on return so a
// fast hit does not leave a multi-minute timer live until GC. A primary
// that *fails* before the budget expires returns without hedging —
// failures belong to the failover path, hedging is for slowness — and
// 4xx verdicts are never hedged: by the time one could fire, the
// request's fate is already decided on every replica.
//
// Returns the deciding outcome, the backend it is charged to (the caller
// applies health accounting to it), and the backup's index when one was
// fired (-1 otherwise; the caller marks it consumed).
func (r *Router) doHedged(ctx context.Context, b int, rest []int, it serve.BatchItem) (serve.BatchOutcome, int, int) {
	// Only interactive traffic hedges. A hedge buys tail latency with
	// duplicate work, which batch traffic by definition does not want —
	// and a backup racing a cold run on a sibling would execute the same
	// grid point twice, breaking the sweep path's exactly-once-
	// cluster-wide property. Batch still gets the failover chain and
	// scoreboard demotion.
	hb, delay := -1, time.Duration(0)
	if r.hedges(it) {
		for _, c := range rest {
			if c != b {
				if d, ok := r.sb.hedgeDelay(b, c); ok {
					hb, delay = c, d
				}
				break
			}
		}
	}
	h := &hedgedRace{r: r, it: it, b: b, hb: hb, out: 1, failed: -1, hedged: -1}
	h.ctx, h.abandon = context.WithCancelCause(ctx)
	defer time.AfterFunc(r.cfg.Timeout, h.timeout).Stop()
	if hb >= 0 {
		defer time.AfterFunc(delay, h.hedge).Stop()
	}
	h.leg(b, false)
	<-h.ctx.Done() // decided, or the caller is gone while the backup is out
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.decided {
		h.decided, h.res, h.from = true, serve.BatchOutcome{Err: ctx.Err()}, b
	}
	return h.res, h.from, h.hedged
}

// hedges reports whether it may take duplicate work on a second replica:
// a hedged backup, or a canary beside the request.
func (r *Router) hedges(it serve.BatchItem) bool {
	return !r.cfg.DisableHedge && it.Class == admit.Interactive
}

// canary sends it to the demoted owner b off the caller's path, with the
// caller's envelope but not its cancellation, bounded by Config.Timeout
// and tagged as a hedge (work a replica may shed). The exchange feeds b's
// score its full latency, so a healed owner is seen; a failure counts
// toward ejection, and a timeout raises the estimate to the timeout.
func (r *Router) canary(ctx context.Context, b int, it serve.BatchItem) {
	if !r.admit(b) {
		return
	}
	it.Params = maps.Clone(it.Params) // the caller may reuse its map once answered
	ctx, cancel := context.WithTimeout(httpapi.WithHedge(context.WithoutCancel(ctx)), r.cfg.Timeout)
	defer cancel()
	switch o := r.attempt(ctx, b, it); classify(o.Err) {
	case verdictOK, verdictReturn:
		r.noteSuccess(b)
	case verdictFailure:
		r.noteFailure(b)
	case verdictCtx:
		r.sb.observeFloor(b, r.cfg.Timeout)
	}
}

// admit reports whether backend b may take an exchange now. Ejected
// backends stay dark until ProbeAfter has elapsed, then one Check probe
// decides: success re-admits, failure re-arms the probe timer.
func (r *Router) admit(b int) bool {
	sc := &r.sb.scores[b]
	sc.mu.Lock()
	if !sc.ejected {
		sc.mu.Unlock()
		return true
	}
	now := r.cfg.now()
	if now.Before(sc.nextProbe) {
		sc.mu.Unlock()
		return false
	}
	// Re-arm before probing so concurrent callers don't stampede the
	// sick backend with probes.
	sc.nextProbe = now.Add(r.cfg.ProbeAfter)
	sc.mu.Unlock()

	if err := r.backends[b].Check(); err != nil {
		return false
	}
	sc.mu.Lock()
	sc.ejected = false
	sc.consecFails = 0
	sc.mu.Unlock()
	r.events.Record(obs.EventReadmit,
		map[string]string{"backend": r.backends[b].Name()}, nil)
	return true
}

func (r *Router) noteSuccess(b int) {
	sc := &r.sb.scores[b]
	sc.mu.Lock()
	sc.consecFails = 0
	sc.mu.Unlock()
}

func (r *Router) noteFailure(b int) {
	sc := &r.sb.scores[b]
	sc.mu.Lock()
	sc.failures++
	sc.consecFails++
	ejectedNow := false
	if !sc.ejected && sc.consecFails >= r.cfg.FailThreshold {
		sc.ejected = true
		sc.ejections++
		sc.nextProbe = r.cfg.now().Add(r.cfg.ProbeAfter)
		ejectedNow = true
	}
	fails := sc.consecFails
	sc.mu.Unlock()
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

	// latency (seconds) and redials are the row's /metrics-only readings.
	latency float64
	redials int64
}

// redialer is the optional backend capability the
// arch21_backend_stream_redials_total counter reads (HTTPBackend.Redials).
type redialer interface {
	Redials() int64
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
	// beat the primary attempt: the sums of the Health rows. Accounted
	// separately from Requests and Failovers: a hedge is an extra backend
	// attempt, not an extra client request, so the engines' conservation
	// law still balances.
	Hedges    int64 `json:"hedges"`
	HedgeWins int64 `json:"hedge_wins"`
	// Health is per-backend status, in backend order.
	Health []BackendStatus `json:"health"`
}

// Metrics returns current counters and per-backend health.
func (r *Router) Metrics() Metrics {
	m := Metrics{
		Backends:  len(r.backends),
		VNodes:    vnodes,
		Requests:  r.requests.Load(),
		Failovers: r.failovers.Load(),
		Exhausted: r.exhausted.Load(),
	}
	for b := range r.backends {
		row := r.status(b)
		m.Hedges += row.Hedges
		m.HedgeWins += row.HedgeWins
		m.Health = append(m.Health, row)
	}
	return m
}

// status reads backend b's row, the one source of /stats and /metrics.
func (r *Router) status(b int) BackendStatus {
	sc := &r.sb.scores[b]
	sc.mu.Lock()
	row := BackendStatus{Name: r.backends[b].Name(), Ejected: sc.ejected,
		Failures: sc.failures, Ejections: sc.ejections, latency: sc.ewma.Mean()}
	sc.mu.Unlock()
	row.Requests = sc.requests.Load()
	row.LatencyEWMAMS = row.latency * 1e3
	row.Inflight = sc.inflight.Load()
	row.Hedges = sc.hedges.Load()
	row.HedgeWins = sc.hedgeWins.Load()
	if c, ok := r.backends[b].(redialer); ok {
		row.redials = c.Redials()
	}
	return row
}
