package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/stats"
)

// ErrUnknownExperiment is returned (wrapped) by the engine's doors when the
// ID is not registered: a missing resource (404), not an internal failure.
var ErrUnknownExperiment error = &httpapi.StatusError{Status: http.StatusNotFound, Msg: "serve: unknown experiment"}

// ErrBadParams wraps parameter-resolution failures (unknown name, value
// out of range): a client error (400).
var ErrBadParams error = &httpapi.StatusError{Status: http.StatusBadRequest, Msg: "serve: invalid parameters"}

// Config parameterizes an Engine.
type Config struct {
	// Shards is the cache shard count (rounded up to a power of two;
	// default 16).
	Shards int
	// CacheBytes bounds the tier-1 slab cache's total arena footprint
	// (default 0: unbounded — dead bytes are compacted but live entries
	// are never evicted). When set, CLOCK picks the survivors: entries
	// read since their segment's last sweep. No clock drops an entry:
	// experiments are deterministic, so a memoized result cannot go stale.
	CacheBytes int64
	// Workers bounds concurrent cold experiment runs (default 4).
	Workers int
	// Queue is the per-class scheduler queue depth (default 16*Workers).
	// A full interactive queue sheds (fail fast) — the default is sized
	// so shedding means sustained overload, not a modest burst of
	// distinct cold keys — while a full batch queue backpressures
	// submitters.
	Queue int
	// BatchRate throttles batch admissions to this rate (tokens/s; 0 =
	// unthrottled). Tunable live via SetBatchRate — the knob the qos
	// feedback controller turns to hold the interactive p99 at its SLO.
	BatchRate float64
	// RunnerWith executes one experiment under a resolved parameter
	// assignment, honoring ctx cancellation. Defaults to the core
	// registry's RunWith; injectable for tests. Parameters still
	// resolve against the core registry, so an ID only a runner knows
	// fails with ErrUnknownExperiment as soon as params are passed.
	RunnerWith func(ctx context.Context, id string, p core.Params) (core.Result, error)
	// Tenants declares the per-tenant accounting vocabulary. When
	// non-empty, the engine keeps per-tenant books (requests, cache
	// hits, sheds) and registers per-tenant /metrics families; requests
	// tagged with an unlisted tenant — or none — fold into the "other"
	// bucket, so metric cardinality is operator config, never
	// request-derived. A bad vocabulary (duplicates, empty names, more
	// than obs.MaxBoundedLabelValues entries, a literal "other") panics
	// at construction, like a bad metric registration.
	Tenants []string
	// SnapshotPath, when set, enables the tier-2 disk cache: NewEngine
	// loads the snapshot file into the in-memory tier (a warm start —
	// entries that fail to decode as Results are skipped), SaveSnapshot
	// rewrites it, and Reset rewrites or removes it so the disk tier
	// never resurrects what the memory tier dropped. A missing or corrupt
	// file is never fatal.
	SnapshotPath string
}

// classCounters is one request class's slice of the engine's books. The
// per-class conservation law — hits + deduped + sheds + executions ==
// requests — holds for every class at quiescence: each admitted request
// lands in exactly one bucket of its own class (a shed follower of a
// shared flight counts as deduped; the leader owns the shed). A hit's
// only write is one Observe, so hits is the hit histogram's count and
// requests is hits + misses: the law's content is that every request
// that entered serveMissRaw left through exactly one other bucket.
type classCounters struct {
	// hit and cold are the class's latency instruments: /stats, /metrics
	// and the controller's window all read these two; "all" is their sum.
	hit, cold *stats.AtomicHistogram

	// misses counts requests that entered serveMissRaw, less those a late
	// leader then served from the cache (they are hits).
	misses     atomic.Int64
	deduped    atomic.Int64
	executions atomic.Int64
	sheds      atomic.Int64

	// winPrev is hit + cold as the last TakeClassWindow read them.
	winMu        sync.Mutex
	win, winPrev stats.HistogramSnapshot
}

func (c *classCounters) hits() int64     { return int64(c.hit.Count()) }
func (c *classCounters) requests() int64 { return c.hits() + c.misses.Load() }

// tenantCounters is one tenant's slice of the engine's books. Unlike the
// class books there is no per-tenant conservation law: a tenant's
// deduped/executed requests are accounted under its class; the tenant
// plane answers "who is driving the traffic and who is being shed".
type tenantCounters struct {
	hits   atomic.Int64
	misses atomic.Int64 // as classCounters': requests is hits + misses
	sheds  atomic.Int64
}

func (t *tenantCounters) requests() int64 { return t.hits.Load() + t.misses.Load() }

// hitClock is one processor's clock line: an arrival count and the last
// measured hit latency in ns (0: none yet). About one arrival in hitSample
// reads the clock (clockIn): a read, ~50 ns, is a sixth of a warm hit.
type hitClock struct {
	n    atomic.Uint64
	last atomic.Int64
	_    [64 - 16]byte
}

const hitSample, untimed = 16, time.Duration(-1) // untimed: the t0 of an arrival that read no clock

// Engine serves experiment results concurrently: cache first, then
// singleflight-deduplicated execution on the class-based admission
// scheduler (internal/admit), with per-request, per-class latency
// recorded so the engine can report its own tail — split by class, which
// is what proves batch pressure is not moving interactive p99.
type Engine struct {
	cache *Cache
	fg    flightGroup
	sched *admit.Scheduler
	run   func(ctx context.Context, id string, p core.Params) (core.Result, error)

	// snapMu serializes tier-2 snapshot writes (SaveSnapshot, the
	// invalidation-coherence rewrites) so concurrent savers cannot
	// interleave rename order with stale dumps.
	snapMu        sync.Mutex
	snapPath      string
	snapLoaded    atomic.Int64
	snapSkipped   atomic.Int64
	snapSaves     atomic.Int64
	snapSaveFails atomic.Int64
	snapLastSave  atomic.Int64 // unix nanos

	classes [2]classCounters
	clocks  []hitClock // one per processor, sized and indexed like the slab's reader stripes

	// tenants/tenantBooks are the per-tenant accounting plane: nil/empty
	// unless Config.Tenants was set. Books are indexed by the bounded
	// vocabulary's slots (declared tenants, then the overflow bucket).
	tenants     *obs.BoundedLabels
	tenantBooks []tenantCounters

	started time.Time

	// events records control-plane decisions (sheds here; controller
	// retunes and /control applications are recorded by their owners into
	// the same ring). Always non-nil after NewEngine.
	events *obs.Events

	// obsOnce/obsReg lazily build the /metrics registry (it closes over
	// the engine and never changes after first use).
	obsOnce sync.Once
	obsReg  *obs.Registry

	// sloMu/sloHook is the live-SLO actuator POST /control drives when a
	// feedback controller is attached (cmd/arch21d registers the
	// supervisor's SetSLO here).
	sloMu   sync.Mutex
	sloHook func(slo time.Duration) error

	// streams is the live GET /stream connections (stream.go).
	streams streamSet
}

// Response is one served result.
type Response struct {
	// ID is the experiment ID served.
	ID string
	// Params is the resolved assignment the result was computed under (nil
	// for zero-param requests); an interned pair's map, shared: read-only.
	Params core.Params
	// Key is the cache key the result is memoized under (the bare ID
	// for default assignments).
	Key string
	// Class is the request class the engine served (and accounted) the
	// request under.
	Class admit.Class
	// Result is the decoded experiment output.
	Result core.Result
	// CacheHit reports whether the result came straight from the cache.
	CacheHit bool
	// Shared reports whether this request piggybacked on another
	// caller's in-flight execution (singleflight).
	Shared bool
	// Latency is the request's wall time inside the engine, except that an
	// untimed warm hit (about 15 in 16) reports its processor's last measured hit.
	Latency time.Duration
}

// RawResponse is one served result in its encoded (wire) form — the
// zero-copy variant of Response. Raw is the core.Result codec bytes
// exactly as memoized, and it aliases slab memory whether the request hit
// or missed (a miss hands out the bytes it just stored; see the Cache
// aliasing contract), so callers must consume it before issuing any write
// for the same key and must never modify it. Entries enter the cache only
// as Encode output or as snapshot payloads validated by DecodeResult at
// load, so Raw always decodes.
type RawResponse struct {
	// ID, Params, Key, Class mirror Response (Params is shared read-only).
	ID     string
	Params core.Params
	Key    string
	Class  admit.Class
	// Raw is the encoded core.Result payload.
	Raw []byte
	// CacheHit and Shared mirror Response.
	CacheHit bool
	Shared   bool
	// Latency is the request's wall time inside the engine, except that an
	// untimed ServeEncoded hit (about 15 in 16; a batch times every hit)
	// reports its processor's last measured hit.
	Latency time.Duration
	// tail is the entry's memoized /run envelope tail (see runTail), nil
	// when none is attached yet; set by serveHit on a cache hit only, and
	// aliasing slab memory like Raw.
	tail []byte
}

// Result decodes the raw payload (allocating — the convenience path, not
// the zero-copy one).
func (r RawResponse) Result() (core.Result, error) {
	return core.DecodeResult(r.Raw)
}

// runRegistry is the default RunnerWith: execute a registered experiment
// under a resolved assignment (nil means defaults), honoring ctx.
func runRegistry(ctx context.Context, id string, p core.Params) (core.Result, error) {
	e, ok := core.ByID(id)
	if !ok {
		return core.Result{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	res, _, err := e.RunWith(ctx, p)
	return res, err
}

// NewEngine builds and starts an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 16 * cfg.Workers
	}
	run := cfg.RunnerWith
	if run == nil {
		run = runRegistry
	}
	e := &Engine{
		cache: NewCacheSized(cfg.Shards, 0, cfg.CacheBytes, EvictLRU),
		sched: admit.NewScheduler(admit.Config{
			Workers:   cfg.Workers,
			Queue:     cfg.Queue,
			BatchRate: cfg.BatchRate,
		}),
		run:      run,
		snapPath: cfg.SnapshotPath,
		started:  time.Now(),
		events:   obs.NewEvents(0),
	}
	e.clocks = make([]hitClock, len(e.cache.shards[0].stripes))
	for i := range e.classes {
		e.classes[i].hit = stats.NewAtomicHistogram(nil)
		e.classes[i].cold = stats.NewAtomicHistogram(nil)
	}
	if len(cfg.Tenants) > 0 {
		e.tenants = obs.NewBoundedLabels(cfg.Tenants, "other")
		e.tenantBooks = make([]tenantCounters, e.tenants.Len())
	}
	if e.snapPath != "" {
		e.loadSnapshot()
	}
	return e
}

// tenantBook returns the per-tenant counter slot for the context's
// tenant (unknown and untagged requests share the overflow slot), nil
// when per-tenant accounting is not configured.
func (e *Engine) tenantBook(ctx context.Context) *tenantCounters {
	if e.tenants == nil { // checked before the context is searched for a tenant
		return nil
	}
	return e.tenantBookOf(admit.TenantFrom(ctx))
}

// tenantBookOf is tenantBook for a tenant in hand.
func (e *Engine) tenantBookOf(tenant string) *tenantCounters {
	if e.tenants == nil {
		return nil
	}
	return &e.tenantBooks[e.tenants.Index(tenant)]
}

// loadSnapshot warm-starts the in-memory tier from the tier-2 file.
// Entries whose payload does not decode as a Result are skipped (they
// would be dropped at first Get anyway); a corrupt file contributes its
// readable prefix. Never fatal.
func (e *Engine) loadSnapshot() {
	kvs, err := ReadSnapshotFile(e.snapPath)
	_ = err // corruption already yielded the loadable prefix
	for _, kv := range kvs {
		if _, derr := core.DecodeResult(kv.Val); derr != nil {
			e.snapSkipped.Add(1)
			continue
		}
		e.cache.Set(kv.Key, kv.Val)
		e.snapLoaded.Add(1)
	}
}

// SaveSnapshot writes the in-memory tier to the tier-2 file (atomic
// replace). It is a no-op without a configured SnapshotPath.
func (e *Engine) SaveSnapshot() error {
	if e.snapPath == "" {
		return nil
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	if err := WriteSnapshotFile(e.snapPath, e.cache.Dump()); err != nil {
		e.snapSaveFails.Add(1)
		return err
	}
	e.snapSaves.Add(1)
	e.snapLastSave.Store(time.Now().UnixNano())
	return nil
}

// dropOrSaveSnapshot keeps the tier-2 file coherent after a deletion:
// rewrite it from the post-delete memory tier, and if that fails (disk
// full), remove the file outright — a restart must start cold rather
// than resurrect entries that were dropped on purpose. Every failed
// maintenance op counts in SnapshotStats.SaveFails; if even the remove
// fails (directory unwritable), the counter is the only signal left, so
// operators should alert on it.
func (e *Engine) dropOrSaveSnapshot() {
	if e.snapPath == "" {
		return
	}
	if err := e.SaveSnapshot(); err != nil {
		e.snapMu.Lock()
		if rerr := os.Remove(e.snapPath); rerr != nil && !os.IsNotExist(rerr) {
			e.snapSaveFails.Add(1)
		}
		e.snapMu.Unlock()
	}
}

// ServeWith is ServeEncoded plus one decode at the edge. The decode is
// also the payload check serveHit takes: a cached entry that does not
// decode is deleted, and the request is served — and booked — as the miss
// it is.
func (e *Engine) ServeWith(ctx context.Context, id string, p core.Params) (Response, error) {
	var res core.Result
	decoded := false
	rr, err := e.serveEncoded(ctx, id, p, func(raw []byte) bool {
		r, derr := core.DecodeResult(raw)
		res, decoded = r, derr == nil
		return decoded
	})
	if err == nil && !decoded {
		res, err = core.DecodeResult(rr.Raw)
	}
	if err != nil {
		return Response{}, err
	}
	return Response{ID: id, Params: rr.Params, Key: rr.Key, Class: rr.Class,
		Result: res, CacheHit: rr.CacheHit, Shared: rr.Shared, Latency: rr.Latency}, nil
}

// ServeEncoded serves one experiment under a parameter assignment (nil or
// empty means defaults) as its encoded payload: from the cache when
// memoized — the slab's own bytes, see RawResponse for their aliasing
// rules — otherwise executed once, however many callers arrive at once,
// through the admission scheduler and memoized on the way out. The
// assignment is resolved against the experiment's schema and folded into
// the cache key, so each grid point is memoized independently and
// explicit defaults share the bare-ID entry.
//
// The context carries the request's QoS envelope: its class
// (admit.WithClass; untagged requests are interactive), its deadline
// (deadline-aware admission sheds a cold request whose projected queue
// wait already exceeds it), and its cancellation (a canceled request
// stops the underlying experiment at its next iteration boundary — cache
// hits are served regardless, since they cost microseconds).
func (e *Engine) ServeEncoded(ctx context.Context, id string, p core.Params) (RawResponse, error) {
	return e.serveEncoded(ctx, id, p, nil)
}

// serveEncoded is ServeEncoded with serveHit's payload check valid.
func (e *Engine) serveEncoded(ctx context.Context, id string, p core.Params, valid func([]byte) bool) (RawResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	proc, hc, t0 := e.clockIn()
	class := admit.ClassFrom(ctx)
	key, resolved, err := identKey(id, p)
	if err != nil {
		return RawResponse{}, err
	}
	if raw, tail, lat, ok := e.serveHit(e.tenantBook(ctx), class, key, proc, hc, t0, valid); ok {
		return RawResponse{ID: id, Params: resolved, Key: key, Class: class,
			Raw: raw, CacheHit: true, Latency: lat, tail: tail}, nil
	}
	return e.serveMissRaw(ctx, class, id, key, resolved, t0)
}

// clockIn ticks its processor's clock line and returns the processor, the
// line and t0: the clock for the line's first arrival, each hitSample-th
// after it and any while the line has no measured hit, else untimed.
func (e *Engine) clockIn() (int, *hitClock, time.Duration) {
	p := procID()
	hc := &e.clocks[p&(len(e.clocks)-1)]
	if (hc.n.Add(1)-1)%hitSample == 0 || hc.last.Load() == 0 {
		return p, hc, e.now()
	}
	return p, hc, untimed
}

// serveHit answers a validated request when the cache holds its key,
// booking the tenant's hit and the hit observation on processor p's
// stripes, and returns the entry's payload and /run tail and the latency:
// since t0 (stored on the clock line hc, if any), or hc's when untimed. A
// miss (false) goes on to serveMissRaw. valid, when non-nil, checks the
// payload; one that fails is deleted and the request is a miss. The
// response is the caller's to build: returned whole, it costs the hit a copy.
func (e *Engine) serveHit(tb *tenantCounters, class admit.Class, key string, p int, hc *hitClock, t0 time.Duration, valid func([]byte) bool) (raw, tail []byte, lat time.Duration, ok bool) {
	if raw, tail, ok = e.cache.getWithAux(key, p); !ok {
		return nil, nil, 0, false
	}
	if valid != nil && !valid(raw) {
		e.cache.Delete(key)
		return nil, nil, 0, false
	}
	if tb != nil {
		tb.hits.Add(1)
	}
	if t0 == untimed {
		lat = time.Duration(hc.last.Load())
	} else if lat = e.now() - t0; hc != nil {
		hc.last.Store(int64(lat))
	}
	e.observe(class, true, lat, p)
	return raw, tail, lat, true
}

// identKey is resolveKey served from the identity table (IdentOf).
func identKey(id string, p core.Params) (string, core.Params, error) {
	if len(p) == 0 {
		return id, nil, nil
	}
	ident := IdentOf(id, p)
	return ident.key, ident.params, ident.err
}

// resolveKey maps (id, params) to the cache key: the bare ID for
// zero-param requests, the experiment's canonical grid-point key after
// schema resolution otherwise. A complete assignment comes back as it is:
// the miss pass only reads it; newIdentity, whose row outlives it, copies.
func resolveKey(id string, p core.Params) (string, core.Params, error) {
	if len(p) == 0 {
		return id, nil, nil
	}
	exp, ok := core.ByID(id)
	if !ok {
		return "", nil, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
	}
	if !exp.Complete(p) {
		var err error
		if p, err = exp.ResolveParams(p); err != nil {
			return "", nil, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
	}
	return exp.CacheKey(p), p, nil
}

// serveMissRaw is the path after a cache miss: singleflight-deduplicated
// execution through the admission scheduler, memoizing on the way out,
// returning the encoded payload. The caller counts as a miss on the way in
// and lands in exactly one bucket on the way out: hit (late leader — the
// miss is taken back), deduped (follower, whatever the outcome), execution
// (leader whose task ran, even to an error), or shed (leader rejected at
// admission or canceled before start). class is ctx's class, which every
// caller has already read: the scheduler takes it from ctx, the books from
// the argument. An untimed t0 reads the clock here.
func (e *Engine) serveMissRaw(ctx context.Context, class admit.Class, id, key string, p core.Params, t0 time.Duration) (RawResponse, error) {
	if t0 == untimed {
		t0 = e.now()
	}
	cc := &e.classes[class]
	cc.misses.Add(1)
	tb := e.tenantBook(ctx)
	if tb != nil {
		tb.misses.Add(1)
	}
	var leaderHit, executed bool
	raw, err, shared := e.fg.Do(key, func() ([]byte, error) {
		// A caller can become flight leader just after the previous
		// leader memoized and left (it missed the cache before the Set
		// landed). Re-check here so an already-memoized experiment is
		// never re-executed.
		if raw, ok := e.cache.Get(key); ok {
			leaderHit = true
			return raw, nil
		}
		return e.sched.Run(ctx, func() ([]byte, error) {
			executed = true
			cc.executions.Add(1)
			res, err := e.run(ctx, id, p)
			if err != nil {
				return nil, err
			}
			return e.memoize(key, res), nil
		})
	})
	if shared {
		cc.deduped.Add(1)
	} else if err != nil && !executed && !leaderHit {
		// The leader was turned away before its task ran: a queue-full or
		// deadline shed, a cancellation while queued, or a closed
		// scheduler. All are sheds — admitted requests that did no work.
		cc.sheds.Add(1)
		if tb != nil {
			tb.sheds.Add(1)
		}
		reason := "canceled"
		var shedErr *admit.ShedError
		data := map[string]float64{}
		if errors.As(err, &shedErr) {
			reason = "queue"
			if shedErr.Deadline {
				reason = "deadline"
			}
			data["retry_after_seconds"] = shedErr.RetryAfter.Seconds()
		}
		e.events.Record(obs.EventShed,
			map[string]string{"class": class.String(), "reason": reason}, data)
	}
	if err != nil {
		return RawResponse{}, err
	}
	lat := e.now() - t0
	if leaderHit { // served from the cache after all: a hit, not a miss
		cc.misses.Add(-1)
		if tb != nil {
			tb.misses.Add(-1)
			tb.hits.Add(1)
		}
	}
	e.observe(class, leaderHit, lat, procID())
	return RawResponse{ID: id, Params: p, Key: key, Class: class, Raw: raw,
		CacheHit: leaderHit, Shared: shared, Latency: lat}, nil
}

// memoize encodes res into pooled scratch and stores it, returning the
// entry's slab bytes: the miss's Raw, under the aliasing contract a hit's
// Raw has. The payload is written twice (scratch, slab) and kept once; a
// scratch grown past maxScratch by a large result goes to the GC.
func (e *Engine) memoize(key string, res core.Result) []byte {
	buf := httpapi.GetBuffer()
	*buf = res.AppendEncode((*buf)[:0])
	raw := e.cache.store(key, *buf)
	if cap(*buf) <= maxScratch {
		httpapi.PutBuffer(buf)
	}
	return raw
}

const maxScratch = 64 << 10

// now is the engine's clock, monotonic time since it started: one clock
// read where time.Now is two (wall and monotonic).
func (e *Engine) now() time.Duration { return time.Since(e.started) }

// observe records one served request on processor p's histogram stripe
// (procID), whose lines stay on one core.
func (e *Engine) observe(class admit.Class, hit bool, lat time.Duration, p int) {
	h := e.classes[class].cold
	if hit {
		h = e.classes[class].hit
	}
	h.ObserveDuration(lat, uint64(p))
}

// TakeClassWindow returns the class's latency snapshot over the window
// since the previous TakeClassWindow call — the signal the SLO feedback
// controller reads. It is the difference between the class's histograms
// now and as the previous call read them: every observation is in exactly
// one window, and nothing the serving path or a scrape touches is reset.
func (e *Engine) TakeClassWindow(class admit.Class) stats.LatencySnapshot {
	cc := &e.classes[class]
	cc.winMu.Lock()
	defer cc.winMu.Unlock()
	cc.win.Reset()
	cc.hit.AddTo(&cc.win)
	cc.cold.AddTo(&cc.win)
	cc.win.Sub(cc.winPrev)
	cc.winPrev.Add(cc.win)
	return cc.win.Latency()
}

// SetBatchRate retunes the batch token-bucket rate live (<= 0 removes
// the throttle) — the qos feedback controller's actuator.
func (e *Engine) SetBatchRate(rate float64) { e.sched.SetBatchRate(rate) }

// ClassMetrics is one request class's slice of the engine's books: the
// conservation counters (hits + deduped + sheds + executions == requests
// at quiescence) plus the class's own latency distributions.
type ClassMetrics struct {
	Requests   int64 `json:"requests"`
	CacheHits  int64 `json:"cache_hits"`
	Deduped    int64 `json:"deduped"`
	Executions int64 `json:"executions"`
	// Sheds counts requests rejected at admission: full interactive
	// queue, projected wait past the request deadline, or cancellation
	// before the work started.
	Sheds int64 `json:"sheds"`
	// QueueDepth is the class's current scheduler queue depth (a gauge).
	QueueDepth int `json:"queue_depth"`
	// HitLatency, ColdLatency, AllLatency are the class's latency
	// snapshots (seconds), read off its histograms: exact mean; min, max
	// and percentiles at bucket resolution (within 10 %), never frozen.
	HitLatency  stats.LatencySnapshot `json:"hit_latency"`
	ColdLatency stats.LatencySnapshot `json:"cold_latency"`
	AllLatency  stats.LatencySnapshot `json:"all_latency"`
}

// Balance checks the conservation law — every request was a hit, deduped,
// shed or executed — naming each count when it fails (read at quiescence).
func (c ClassMetrics) Balance() error {
	if sum := c.CacheHits + c.Deduped + c.Sheds + c.Executions; sum != c.Requests {
		return fmt.Errorf("hits(%d)+deduped(%d)+sheds(%d)+executions(%d)=%d != requests(%d)",
			c.CacheHits, c.Deduped, c.Sheds, c.Executions, sum, c.Requests)
	}
	return nil
}

// TenantMetrics is one tenant's slice of the engine's books (see
// tenantCounters for what the tenant plane does and does not promise).
type TenantMetrics struct {
	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cache_hits"`
	Sheds     int64 `json:"sheds"`
}

// Metrics is a point-in-time engine health snapshot.
type Metrics struct {
	// UptimeSeconds is time since NewEngine.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts validated requests across classes; CacheHits
	// those answered from cache; Deduped those that piggybacked on an
	// in-flight execution; Executions the underlying experiment runs
	// actually performed; Sheds requests rejected at admission.
	Requests   int64 `json:"requests"`
	CacheHits  int64 `json:"cache_hits"`
	Deduped    int64 `json:"deduped"`
	Executions int64 `json:"executions"`
	Sheds      int64 `json:"sheds"`
	// Workers is the scheduler's concurrency bound.
	Workers int `json:"workers"`
	// Cache aggregates shard counters.
	Cache CacheStats `json:"cache"`
	// HitLatency, ColdLatency, AllLatency are cross-class latency
	// snapshots (seconds).
	HitLatency  stats.LatencySnapshot `json:"hit_latency"`
	ColdLatency stats.LatencySnapshot `json:"cold_latency"`
	AllLatency  stats.LatencySnapshot `json:"all_latency"`
	// Classes splits the books by request class ("interactive",
	// "batch") — the view that proves batch pressure is not moving
	// interactive tail latency.
	Classes map[string]ClassMetrics `json:"classes"`
	// Tenants splits request/hit/shed counts by tenant when per-tenant
	// accounting is configured (Config.Tenants); the "other" key
	// aggregates unlisted and untagged traffic. Absent otherwise.
	Tenants map[string]TenantMetrics `json:"tenants,omitempty"`
	// Scheduler is the admission scheduler's own snapshot: running slots,
	// queue depths, token bucket state, per-class service EWMAs.
	Scheduler admit.Stats `json:"scheduler"`
	// Snapshot reports the tier-2 disk cache (zero value when disabled).
	Snapshot SnapshotStats `json:"snapshot"`
}

// SnapshotStats reports the tier-2 disk cache's activity.
type SnapshotStats struct {
	// Enabled reports whether a SnapshotPath is configured.
	Enabled bool `json:"enabled"`
	// Loaded counts entries warm-started into the memory tier at boot;
	// Skipped counts boot entries dropped because their payload did not
	// decode as a Result.
	Loaded  int64 `json:"loaded"`
	Skipped int64 `json:"skipped"`
	// Saves counts snapshot writes; SaveFails counts failed ones (after
	// a failed coherence rewrite the file is removed so a restart starts
	// cold instead of resurrecting dropped entries); LastSaveUnixNano
	// stamps the latest success.
	Saves            int64 `json:"saves"`
	SaveFails        int64 `json:"save_fails"`
	LastSaveUnixNano int64 `json:"last_save_unix_nano,omitempty"`
}

// Metrics returns current counters and latency snapshots.
func (e *Engine) Metrics() Metrics {
	sched := e.sched.Stats()
	m := Metrics{
		UptimeSeconds: time.Since(e.started).Seconds(),
		Workers:       sched.Workers,
		Cache:         e.cache.Stats(),
		Classes:       make(map[string]ClassMetrics, len(e.classes)),
		Scheduler:     sched,
		Snapshot: SnapshotStats{
			Enabled:          e.snapPath != "",
			Loaded:           e.snapLoaded.Load(),
			Skipped:          e.snapSkipped.Load(),
			Saves:            e.snapSaves.Load(),
			SaveFails:        e.snapSaveFails.Load(),
			LastSaveUnixNano: e.snapLastSave.Load(),
		},
	}
	var hits, colds stats.HistogramSnapshot
	for _, class := range admit.Classes() {
		cc := &e.classes[class]
		hit, cold := cc.hit.Snapshot(), cc.cold.Snapshot()
		hits.Add(hit)
		colds.Add(cold)
		cm := ClassMetrics{
			Requests:    int64(hit.Count) + cc.misses.Load(),
			CacheHits:   int64(hit.Count),
			Deduped:     cc.deduped.Load(),
			Executions:  cc.executions.Load(),
			Sheds:       cc.sheds.Load(),
			QueueDepth:  sched.Classes[class.String()].Queued,
			HitLatency:  hit.Latency(),
			ColdLatency: cold.Latency(),
		}
		cold.Add(hit) // "all" is the two outcomes added
		cm.AllLatency = cold.Latency()
		m.Classes[class.String()] = cm
		m.Requests += cm.Requests
		m.CacheHits += cm.CacheHits
		m.Deduped += cm.Deduped
		m.Executions += cm.Executions
		m.Sheds += cm.Sheds
	}
	m.HitLatency, m.ColdLatency = hits.Latency(), colds.Latency()
	hits.Add(colds)
	m.AllLatency = hits.Latency()
	if e.tenants != nil {
		m.Tenants = make(map[string]TenantMetrics, e.tenants.Len())
		for i := range e.tenantBooks {
			tb := &e.tenantBooks[i]
			m.Tenants[e.tenants.Value(i)] = TenantMetrics{
				Requests:  tb.requests(),
				CacheHits: tb.hits.Load(),
				Sheds:     tb.sheds.Load(),
			}
		}
	}
	return m
}

// Reset drops every memoized result from both tiers (the tier-2 snapshot
// is rewritten empty — or removed if the rewrite fails — so a restart
// starts cold).
func (e *Engine) Reset() {
	e.cache.Clear()
	e.dropOrSaveSnapshot()
}

// Close ends the live replica streams — their in-flight frames are
// canceled and waited for, and a front-end on the other end sees a
// transport failure — then shuts down the scheduler, draining queued
// work. The engine must not serve a request after Close.
func (e *Engine) Close() {
	e.streams.close()
	e.sched.Close()
}
