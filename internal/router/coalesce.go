package router

// The batched data plane's front half: request coalescing. Routed
// requests for the same owning replica are queued per backend and
// flushed as one DoBatch exchange — so the wire (or the in-process
// call) is paid once per frame instead of once per request, which is
// what lets routed throughput track raw engine throughput when
// communication dominates computation.
//
// The flush policy is class-aware so PR 8's tail-latency protections
// survive batching:
//
//   - A frame flushes immediately at maxBatch entries ("full").
//   - A pure batch-class queue may wait up to batchWindow for company
//     ("window") — batch traffic trades a bounded sub-millisecond delay
//     for amortization by definition.
//   - An interactive arrival flushes the queue at once ("interactive"):
//     interactive requests never wait out a window. Their batching
//     arises only from group commit — arrivals that land while a flush
//     is already on the wire ride the next frame together.
//
// Interactive requests only coalesce at all when the owner is trusted:
// scoreboard warmed up (>= hedgeWarmup samples) and its latency EWMA
// under coalesceTrustMean — otherwise they walk the hedged chain with a
// frame of their own, so a degraded replica's p99 is still covered by
// backup requests. A frame carries one QoS envelope, and a flush runs
// under the router's own timeout, detached from caller contexts (one
// canceled caller must not waste its siblings' memoized work) — so a
// request with an envelope of its own, a deadline or a tenant, never
// joins a shared frame either: it ships its own, under its own context.

import (
	"context"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/serve"
)

const (
	// maxBatch is the flush-on-count threshold per coalesced frame.
	maxBatch = 64
	// batchWindow bounds how long a pure batch-class queue waits for
	// company before flushing anyway.
	batchWindow = 500 * time.Microsecond
	// coalesceTrustMean is the owner latency EWMA (seconds) above which
	// interactive traffic stops coalescing and returns to the hedged
	// chain walk.
	coalesceTrustMean = 0.005
)

// Flush reasons, in batchFlushes index order.
const (
	flushFull = iota
	flushWindow
	flushInteractive
	// flushDirect counts frames shipped without passing the coalescing
	// queue: ServeEncodedBatch's pre-assembled owner groups (sweep fan-out
	// and the /batch endpoint) and the chain walk's frames of one.
	flushDirect
	flushReasons
)

var flushReasonNames = [flushReasons]string{"full", "window", "interactive", "direct"}

// FlushReasonNames lists the flush-reason vocabulary of the
// arch21_batch_flushes_total metric, in label order.
func FlushReasonNames() []string { return flushReasonNames[:] }

// batchSizeBounds are the arch21_batch_size bucket bounds: powers of
// two through the coalescer's cap, then the wire frame cap.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096}

// flusherIdle is how long an idle flush goroutine stays parked on its
// wake channel before exiting. Keeping the goroutine alive across
// consecutive frames matters: respawning per drain cycle pays a cold
// stack growth (runtime.newstack) on every flush, which profiles as the
// single largest cost of the warm routed path.
const flusherIdle = 50 * time.Millisecond

// batchCall is one request waiting in a coalescing queue. done is
// buffered so a flush can complete a call whose caller already gave up.
// ident is the request's interned identity: the flush serves an in-process
// engine by its key and a remote one by its wire bytes.
type batchCall struct {
	ident *serve.Identity
	class admit.Class
	done  chan serve.BatchOutcome
}

// release recycles a completed call, passing its outcome through.
func (call *batchCall) release(out serve.BatchOutcome) serve.BatchOutcome {
	call.ident = nil
	callPool.Put(call)
	return out
}

var callPool = sync.Pool{New: func() any {
	return &batchCall{done: make(chan serve.BatchOutcome, 1)}
}}

// coalescer is one backend's flush queue. At most one flushLoop
// goroutine exists per coalescer (guarded by flushing); it drains the
// queue in frames, parks briefly when the queue goes empty, and exits
// only after flusherIdle without traffic.
type coalescer struct {
	r *Router
	b int
	// eng is the unwrapped engine of an in-process backend: it cannot
	// transport-wedge, so its flushes skip the per-flush timeout context
	// a remote exchange needs, and exchange calls its buffer-reusing
	// multi-get directly, so the steady state allocates neither items
	// nor outcomes per frame.
	eng *serve.Engine

	mu      sync.Mutex
	pending []*batchCall
	spare   []*batchCall // drained frame recycled as the next queue (returned under mu)
	// flushing marks the background flush goroutine alive; shipping
	// marks a frame exchange in progress (by the goroutine or by an
	// interactive leader executing its own flush) — at most one ship
	// runs at a time, which is what makes the scratch buffers below
	// reusable and keeps frames ordered.
	flushing bool
	shipping bool
	// wake (capacity 1) unparks the flush goroutine when work arrives on
	// an empty queue and cuts a window wait short when an interactive
	// request or a full frame arrives mid-wait. A stale wake at worst
	// shortens the next window — never drops a flush.
	wake chan struct{}

	// items and outs are ship's reusable frame buffers; safe to reuse
	// because shipping serializes ship calls, backends return only after
	// the exchange is fully resolved, and every outcome is copied into
	// its call's done channel before the next frame.
	items []serve.BatchItem
	outs  []serve.BatchOutcome
}

// do enqueues one request and blocks until its flush completes or ctx
// is canceled. On cancellation the call is abandoned, not recycled —
// the in-flight flush still owns it and will complete it into the
// buffered done channel.
func (c *coalescer) do(ctx context.Context, class admit.Class, ident *serve.Identity) serve.BatchOutcome {
	call := callPool.Get().(*batchCall)
	call.ident, call.class = ident, class
	c.mu.Lock()
	c.pending = append(c.pending, call)
	n := len(c.pending)
	if class == admit.Interactive && !c.shipping && ctx.Done() == nil {
		// Group-commit leader: an interactive arrival flushes the queue
		// at once anyway, and with no exchange in progress this caller
		// can run the flush itself — no handoff to the flush goroutine,
		// which at low concurrency would park and unpark two goroutines
		// to ship a frame of one. Uncancelable contexts only: a leader
		// cannot abandon a flush it is executing. Arrivals that land
		// while this ship is on the wire ride the next frame together.
		c.shipping = true
		take := c.pending
		c.pending = c.spare
		c.spare = nil
		c.mu.Unlock()
		reason := flushInteractive
		if n >= maxBatch {
			reason = flushFull
		}
		c.ship(take, reason)
		clear(take)
		c.mu.Lock()
		c.shipping = false
		c.spare = take[:0]
		pend := len(c.pending) > 0
		spawn := pend && !c.flushing
		if spawn {
			c.flushing = true
		}
		c.mu.Unlock()
		if spawn {
			go c.flushLoop()
		} else if pend {
			select {
			case c.wake <- struct{}{}:
			default:
			}
		}
		return call.release(<-call.done)
	}
	spawn := !c.flushing
	if spawn {
		c.flushing = true
	}
	c.mu.Unlock()
	if spawn {
		go c.flushLoop()
	} else if n == 1 || class == admit.Interactive || n >= maxBatch {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
	if ctx.Done() == nil {
		// No cancellation to race (Background or an uncancelable parent):
		// a plain receive skips the generic select machinery.
		return call.release(<-call.done)
	}
	select {
	case out := <-call.done:
		return call.release(out)
	case <-ctx.Done():
		return serve.BatchOutcome{Err: ctx.Err()}
	}
}

// pureBatch reports whether every pending call is batch-class (the only
// case allowed to wait out a window).
func pureBatch(calls []*batchCall) bool {
	for _, c := range calls {
		if c.class != admit.Batch {
			return false
		}
	}
	return true
}

// resetTimer re-arms a (possibly fired, possibly stopped) timer owned
// by a single goroutine.
func resetTimer(t *time.Timer, d time.Duration) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	t.Reset(d)
}

// flushLoop drains the queue in frames. An empty queue parks the
// goroutine on wake (re-armed by do when work lands on an empty queue)
// rather than exiting immediately, so steady traffic reuses one warm
// stack and one timer across every flush; only flusherIdle without
// traffic ends the loop.
func (c *coalescer) flushLoop() {
	t := time.NewTimer(flusherIdle)
	defer t.Stop()
	waited := false
	for {
		c.mu.Lock()
		n := len(c.pending)
		if n == 0 || c.shipping {
			// Nothing to take, or an interactive leader owns the current
			// exchange (it re-wakes this goroutine if work is pending when
			// it finishes). Park.
			c.mu.Unlock()
			waited = false
			resetTimer(t, flusherIdle)
			select {
			case <-c.wake:
			case <-t.C:
				c.mu.Lock()
				if len(c.pending) == 0 && !c.shipping {
					c.flushing = false
					c.mu.Unlock()
					return
				}
				c.mu.Unlock()
			}
			continue
		}
		full := n >= maxBatch
		pure := pureBatch(c.pending)
		if !full && pure && !waited {
			c.mu.Unlock()
			resetTimer(t, batchWindow)
			select {
			case <-t.C:
			case <-c.wake:
			}
			waited = true
			continue
		}
		c.shipping = true
		take := c.pending
		c.pending = c.spare
		c.spare = nil
		c.mu.Unlock()
		var reason int
		switch {
		case full:
			reason = flushFull
		case !pure:
			reason = flushInteractive
		default:
			reason = flushWindow
		}
		waited = false
		c.ship(take, reason)
		clear(take)
		c.mu.Lock()
		c.shipping = false
		c.spare = take[:0]
		c.mu.Unlock()
	}
}

// ship runs one frame against the backend and completes every call.
// The flush context is the router's own timeout, deliberately detached
// from the callers': requests with a deadline of their own ship their
// own frames, so every queued caller is patient, and a caller that gave
// up anyway must not cancel its siblings' (memoized, never wasted) work.
// Whatever loses the frame — expiry of that timeout included — is the
// replica's failure.
func (c *coalescer) ship(calls []*batchCall, reason int) {
	r := c.r
	items := c.items[:0]
	for _, call := range calls {
		items = append(items, itemOf(call.ident, call.class))
	}
	c.items = items[:0]
	ctx := context.Background()
	if c.eng == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.cfg.Timeout)
		defer cancel()
	}
	outs, err := r.exchange(ctx, c.b, items, reason)
	if err != nil {
		r.noteFailure(c.b)
		for _, call := range calls {
			call.done <- serve.BatchOutcome{Err: err}
		}
		return
	}
	r.noteSuccess(c.b)
	for i, call := range calls {
		call.done <- outs[i]
	}
}

// coalesceOK reports whether one request may join owner's shared frame
// instead of shipping its own along the chain. A request with an envelope
// of its own — a deadline or a tenant — never does (a frame carries one
// envelope, and the flush runs detached from caller contexts); ejected
// owners never coalesce (the chain walk knows how to probe and fail
// over); batch class always coalesces past those gates; interactive
// coalesces only when the owner's scoreboard is warmed up and fast —
// otherwise the hedged chain walk keeps its p99 covered.
func (r *Router) coalesceOK(ctx context.Context, owner int, class admit.Class) bool {
	if _, hasDeadline := ctx.Deadline(); hasDeadline || admit.TenantFrom(ctx) != "" {
		return false
	}
	st := &r.state[owner]
	st.mu.Lock()
	ejected := st.ejected
	st.mu.Unlock()
	if ejected {
		return false
	}
	if class == admit.Batch {
		return true
	}
	mean, _, n := r.sb.snapshot(owner)
	return n >= hedgeWarmup && mean < coalesceTrustMean
}

// ServeEncoded routes one request through the batched data plane: a
// request that may coalesce joins its owner's flush queue; anything else
// — or a coalesced attempt that comes back with a failover-worthy error
// — walks the hedged chain with a frame of its own. Either way the
// replica's encoded payload comes back without a decode/re-encode at
// this hop. Satisfies load.Server, so in-process load generation
// measures exactly this path.
func (r *Router) ServeEncoded(ctx context.Context, id string, p core.Params) (serve.RawResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.requests.Add(1)
	class := admit.ClassFrom(ctx)
	ident := serve.IdentOf(id, p)
	owner := r.ring.Place(ident.Hash())
	if r.coalesceOK(ctx, owner, class) {
		out := r.co[owner].do(ctx, class, ident)
		if out.Err == nil {
			r.batched.Add(1)
			return out.RawResponse, nil
		}
		switch classify(out.Err) {
		case verdictCtx, verdictReturn:
			// Final on every replica (caller gone, client error, deadline
			// shed): failing over would answer identically or waste work.
			return serve.RawResponse{}, out.Err
		}
		// Queue-full shed or replica failure: the chain walk below owns
		// failover, ejection, and hedging semantics.
	}
	out := r.serveChainKeyed(ctx, itemOf(ident, class))
	return out.RawResponse, out.Err
}

// ServeEncodedBatch serves a pre-assembled frame of items: group by owning
// replica, one exchange per owner (under the caller's context — the sweep
// path needs its cancellation to propagate), and per-entry fallback
// through the chain walk when an owner is ejected, loses the frame, or an
// entry comes back failover-worthy. Outcomes are in item order. Placement
// still follows the ring, so a sweep fanned out through frames executes
// each grid point exactly once cluster-wide, on the same replica single
// requests would pick. Items that arrive without an identity (in-process
// callers holding a map) are annotated in place with it and its resolved
// params (visible to the caller). Owners are served concurrently, a lone
// owner on this goroutine, their exchanges under one bound — ctx, canceled
// at the router's timeout — so a wedged replica costs a sweep one timeout,
// not the sweep. A cancel, not a deadline: arming a timer is not free, and
// a deadline would ride the envelope and arm one on every replica too.
func (r *Router) ServeEncodedBatch(ctx context.Context, items []serve.BatchItem) []serve.BatchOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	r.requests.Add(int64(len(items)))
	out := make([]serve.BatchOutcome, len(items))
	groups := make([][]int, len(r.backends))
	var owner int
	for i := range items {
		it := &items[i]
		if it.Ident == nil {
			it.Ident = serve.IdentOf(it.ID, it.Params)
			it.Params = it.Ident.Params()
		}
		owner = r.ring.Place(it.Ident.Hash())
		if groups[owner] == nil {
			groups[owner] = make([]int, 0, len(items)-i)
		}
		groups[owner] = append(groups[owner], i)
	}
	xctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer time.AfterFunc(r.cfg.Timeout, cancel).Stop()
	if n := len(items); n > 0 && len(groups[owner]) == n { // one owner: no goroutine
		r.serveOwnerBatch(ctx, xctx, owner, groups[owner], items, out)
		return out
	}
	var wg sync.WaitGroup
	for owner, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(owner int, idxs []int) {
			defer wg.Done()
			r.serveOwnerBatch(ctx, xctx, owner, idxs, items, out)
		}(owner, idxs)
	}
	wg.Wait()
	return out
}

// serveOwnerBatch ships one owner's share of a frame, falling back to
// the chain walk per entry when the owner is ejected, the exchange is
// lost, or an entry's error warrants failover. The exchange runs under
// xctx, ctx canceled at the router's timeout; the fallbacks under ctx.
func (r *Router) serveOwnerBatch(ctx, xctx context.Context, owner int, idxs []int, items []serve.BatchItem, out []serve.BatchOutcome) {
	if r.admit(owner) {
		sub := make([]serve.BatchItem, len(idxs))
		for j, i := range idxs {
			sub[j] = items[i]
		}
		outs, err := r.exchange(xctx, owner, sub, flushDirect)
		switch {
		case err == nil:
			r.noteSuccess(owner)
			for j, i := range idxs {
				o := outs[j]
				if o.Err == nil {
					r.batched.Add(1)
					out[i] = o
					continue
				}
				switch classify(o.Err) {
				case verdictCtx, verdictReturn:
					out[i] = o
				default:
					out[i] = r.serveChainKeyed(ctx, items[i])
				}
			}
			return
		case ctx.Err() != nil:
			// The caller is gone: final for every entry, no health blame.
			for _, i := range idxs {
				out[i] = serve.BatchOutcome{Err: ctx.Err()}
			}
			return
		}
		// Transport failure, timeout or a malformed outcome count: blame
		// the replica once and let each entry fail over through the chain.
		r.noteFailure(owner)
	}
	for _, i := range idxs {
		out[i] = r.serveChainKeyed(ctx, items[i])
	}
}
