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
// under coalesceTrustMean — otherwise they take the classic hedged
// single-request path, so a degraded replica's p99 is still covered by
// backup requests. Requests carrying a deadline always bypass
// coalescing: a flush runs under the router's own timeout, detached
// from caller contexts, so one canceled caller cannot waste its
// siblings' memoized work.

import (
	"context"
	"fmt"
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
	// single-request path.
	coalesceTrustMean = 0.005
)

// Flush reasons, in batchFlushes index order.
const (
	flushFull = iota
	flushWindow
	flushInteractive
	// flushDirect counts pre-assembled frames (sweep fan-out and the
	// /batch endpoint) shipped through ServeEncodedBatch without passing
	// the coalescing queue.
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
// only after flusherIdle without traffic. direct marks an in-process
// engine backend: its DoBatch cannot transport-wedge, so flushes skip
// the per-flush timeout context a remote exchange needs.
type coalescer struct {
	r      *Router
	b      int
	bb     BatchBackend
	direct bool
	// eng is the unwrapped in-process engine when direct: flushes call
	// its buffer-reusing multi-get directly, so the steady state
	// allocates neither items nor outcomes per frame.
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
// from the callers': deadline-carrying requests bypassed coalescing, so
// every queued caller is patient, and a caller that gave up anyway must
// not cancel its siblings' (memoized, never wasted) work.
func (c *coalescer) ship(calls []*batchCall, reason int) {
	r := c.r
	r.batchFlushes[reason].Add(1)
	r.batchSize.Observe(float64(len(calls)))
	st := &r.state[c.b]
	st.mu.Lock()
	st.requests += int64(len(calls))
	st.mu.Unlock()
	items := c.items[:0]
	for _, call := range calls {
		items = append(items, serve.BatchItem{ID: call.ident.ID(), Params: call.ident.Params(),
			Class: call.class, Ident: call.ident})
	}
	c.items = items[:0]
	sc := &r.sb.scores[c.b]
	sc.inflight.Add(int64(len(calls)))
	var (
		outs []serve.BatchOutcome
		err  error
	)
	t0 := time.Now()
	if c.direct {
		// The flush bound exists to classify transport slowness; an
		// in-process engine cannot transport-wedge, so direct flushes
		// skip the per-flush context (and its timer) and reuse the
		// outcome buffer frame over frame.
		outs = c.eng.ServeEncodedBatchInto(context.Background(), items, c.outs[:0])
		c.outs = outs[:0]
	} else {
		fctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
		outs, err = c.bb.DoBatch(fctx, items)
		cancel()
	}
	elapsed := time.Since(t0)
	sc.inflight.Add(-int64(len(calls)))
	if err == nil && len(outs) != len(calls) {
		err = fmt.Errorf("router: %s: batch returned %d outcomes for %d items",
			r.backends[c.b].Name(), len(outs), len(calls))
	}
	if err != nil {
		r.noteFailure(c.b)
		for _, call := range calls {
			call.done <- serve.BatchOutcome{Err: err}
		}
		return
	}
	r.noteSuccess(c.b)
	r.sb.observe(c.b, elapsed)
	for i, call := range calls {
		call.done <- outs[i]
	}
}

// coalesceOK reports whether one request may enter owner's coalescing
// queue instead of the classic chain. Deadline-carrying requests never
// coalesce (the flush runs detached from caller deadlines); ejected
// owners never coalesce (the chain walk knows how to probe and fail
// over); batch class always coalesces past those gates; interactive
// coalesces only when the owner's scoreboard is warmed up and fast —
// otherwise the hedged single-request path keeps its p99 covered.
func (r *Router) coalesceOK(ctx context.Context, owner int, class admit.Class) bool {
	if _, hasDeadline := ctx.Deadline(); hasDeadline {
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

// encodeResponse converts a classic-path Response into the encoded
// form the batched surfaces return (one Encode; the payload is fresh,
// not slab-aliased).
func encodeResponse(resp serve.Response) serve.RawResponse {
	return serve.RawResponse{
		ID:       resp.ID,
		Params:   resp.Params,
		Key:      resp.Key,
		Class:    resp.Class,
		Raw:      resp.Result.Encode(),
		CacheHit: resp.CacheHit,
		Shared:   resp.Shared,
		Latency:  resp.Latency,
	}
}

// ServeEncoded routes one request through the batched data plane: if
// the owner's backend can batch and the request may coalesce, it joins
// the owner's flush queue and returns the replica's encoded payload
// without a decode/re-encode at this hop. Otherwise — or when a
// coalesced attempt comes back with a failover-worthy error — it takes
// the classic hedged chain and encodes at the edge. Satisfies
// load.EncodedServer, so in-process load generation measures exactly
// this path.
func (r *Router) ServeEncoded(ctx context.Context, id string, p core.Params) (serve.RawResponse, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.requests.Add(1)
	class := admit.ClassFrom(ctx)
	ident := serve.IdentOf(id, p)
	owner := r.ring.Place(ident.Hash())
	if c := r.co[owner]; c != nil && r.coalesceOK(ctx, owner, class) {
		out := c.do(ctx, class, ident)
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
	resp, err := r.serveChainKeyed(ctx, id, p, ident.Key())
	if err != nil {
		return serve.RawResponse{}, err
	}
	return encodeResponse(resp), nil
}

// fallbackOne serves one batch item through the classic chain under the
// item's own class.
func (r *Router) fallbackOne(ctx context.Context, it serve.BatchItem) serve.BatchOutcome {
	ictx := ctx
	if admit.ClassFrom(ctx) != it.Class {
		ictx = admit.WithClass(ctx, it.Class)
	}
	resp, err := r.serveChainKeyed(ictx, it.ID, it.Params, it.Ident.Key())
	if err != nil {
		return serve.BatchOutcome{Err: err}
	}
	return serve.BatchOutcome{RawResponse: encodeResponse(resp)}
}

// ServeEncodedBatch serves a pre-assembled frame of items: group by
// owning replica, one DoBatch exchange per owner (under the caller's
// context — the sweep path needs its cancellation to propagate), and
// per-entry fallback through the classic chain when an owner cannot
// batch, is ejected, or an entry comes back failover-worthy. Outcomes
// are in item order. Placement still follows the ring, so a sweep
// fanned out through frames executes each grid point exactly once
// cluster-wide, on the same replica single requests would pick. Items
// that arrive without an identity (in-process callers holding a map) are
// annotated in place with it and its resolved params (visible to the
// caller). Owners are served concurrently, a lone owner on this goroutine.
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
	if n := len(items); n > 0 && len(groups[owner]) == n { // one owner: no goroutine
		r.serveOwnerBatch(ctx, owner, groups[owner], items, out)
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
			r.serveOwnerBatch(ctx, owner, idxs, items, out)
		}(owner, idxs)
	}
	wg.Wait()
	return out
}

// serveOwnerBatch ships one owner's share of a frame, falling back to
// the classic chain per entry when the direct exchange is unavailable
// or an entry's error warrants failover.
func (r *Router) serveOwnerBatch(ctx context.Context, owner int, idxs []int, items []serve.BatchItem, out []serve.BatchOutcome) {
	bb, ok := r.backends[owner].(BatchBackend)
	if ok && r.admit(owner) {
		// admit counted one request toward the owner; account the rest of
		// the frame's entries.
		if len(idxs) > 1 {
			st := &r.state[owner]
			st.mu.Lock()
			st.requests += int64(len(idxs) - 1)
			st.mu.Unlock()
		}
		sub := make([]serve.BatchItem, len(idxs))
		for j, i := range idxs {
			sub[j] = items[i]
		}
		r.batchFlushes[flushDirect].Add(1)
		r.batchSize.Observe(float64(len(sub)))
		sc := &r.sb.scores[owner]
		sc.inflight.Add(int64(len(sub)))
		t0 := time.Now()
		outs, err := bb.DoBatch(ctx, sub)
		elapsed := time.Since(t0)
		sc.inflight.Add(-int64(len(sub)))
		if err == nil && len(outs) == len(sub) {
			r.noteSuccess(owner)
			r.sb.observe(owner, elapsed)
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
					out[i] = r.fallbackOne(ctx, items[i])
				}
			}
			return
		}
		if err != nil && classify(err) == verdictCtx {
			// The caller is gone: final for every entry, no health blame.
			for _, i := range idxs {
				out[i] = serve.BatchOutcome{Err: err}
			}
			return
		}
		// Transport failure (or a malformed outcome count): blame the
		// replica once and let each entry fail over through the chain.
		r.noteFailure(owner)
	}
	for _, i := range idxs {
		out[i] = r.fallbackOne(ctx, items[i])
	}
}
