package router

// The pre-assembled frames: a batch of items regrouped by owning replica
// and shipped one exchange per owner — the sweep fan-out and the POST
// /batch endpoint. A single routed request does not come through here:
// it walks the chain as a frame of one (Router.ServeEncoded).

import (
	"context"
	"slices"
	"sync"
	"time"

	"repro/internal/serve"
)

// batchSizeBounds are the arch21_batch_size bucket bounds: powers of
// two through 64, then up to the wire frame cap.
var batchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096}

// ServeEncodedBatch serves a pre-assembled frame of items: group by owning
// replica, one exchange per owner (under the caller's context — the sweep
// path needs its cancellation to propagate), and per-entry fallback
// through the chain walk when an owner is ejected, loses the frame, or an
// entry comes back failover-worthy. Outcomes are in item order. Placement
// still follows the ring, so a sweep fanned out through frames executes
// each grid point exactly once cluster-wide, on the same replica single
// requests would pick. Items that arrive without an identity (in-process
// callers holding a map) are annotated in place with it and its resolved
// params (visible to the caller). Owners are served concurrently, the last
// one on this goroutine, their exchanges under one bound — ctx, canceled
// at the router's timeout — so a wedged replica costs a sweep one timeout,
// not the sweep. A cancel, not a deadline: arming a timer is not free, and
// a deadline would ride the envelope and arm one on every replica too.
func (r *Router) ServeEncodedBatch(ctx context.Context, items []serve.BatchItem) []serve.BatchOutcome {
	return r.ServeEncodedBatchInto(ctx, items, nil)
}

// ServeEncodedBatchInto is ServeEncodedBatch writing outcomes into buf,
// reused when its capacity suffices (Engine.ServeEncodedBatchInto).
func (r *Router) ServeEncodedBatchInto(ctx context.Context, items []serve.BatchItem, buf []serve.BatchOutcome) []serve.BatchOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(items)
	r.requests.Add(int64(n))
	out := slices.Grow(buf[:0], n)[:n]
	clear(out)
	if n == 0 {
		return out
	}
	// A counting sort by owner into one index slice and one sub-item slice,
	// each owner's share a contiguous run: ends[o+1] counts owner o's items,
	// the prefix sums make ends[o] its run's start, placing moves it to the end.
	s := sortPool.Get().(*sortScratch)
	defer s.release()
	idx := slices.Grow(s.idx[:0], 2*n+len(r.backends)+1)[:2*n+len(r.backends)+1]
	owners, order, ends := idx[:n], idx[n:2*n], idx[2*n:]
	clear(ends)
	for i := range items {
		it := &items[i]
		if it.Ident == nil {
			it.Ident = serve.IdentOf(it.ID, it.Params)
			it.Params = it.Ident.Params()
		}
		owners[i] = r.ring.Place(it.Ident.Hash())
		ends[owners[i]+1]++
	}
	for o := 1; o < len(r.backends); o++ {
		ends[o] += ends[o-1]
	}
	sub := slices.Grow(s.sub[:0], n)[:n]
	s.idx, s.sub = idx, sub
	for i, o := range owners {
		order[ends[o]], sub[ends[o]] = i, items[i]
		ends[o]++
	}
	xctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer time.AfterFunc(r.cfg.Timeout, cancel).Stop()
	var wg sync.WaitGroup
	lo := 0
	for o, hi := range ends[:len(r.backends)] {
		switch {
		case hi == n: // the last owner: on this goroutine
			r.serveOwnerBatch(ctx, xctx, o, order[lo:], sub[lo:], items, out)
		case hi > lo:
			wg.Add(1)
			go func(o int, idxs []int, sub []serve.BatchItem) {
				defer wg.Done()
				r.serveOwnerBatch(ctx, xctx, o, idxs, sub, items, out)
			}(o, order[lo:hi], sub[lo:hi])
		}
		if lo = hi; lo == n {
			break
		}
	}
	wg.Wait()
	return out
}

// sortScratch is ServeEncodedBatchInto's pooled owner sort, cleared on
// return so the pool pins no identity or params; not above 256 entries.
type sortScratch struct {
	idx []int
	sub []serve.BatchItem
}

var sortPool = sync.Pool{New: func() any { return new(sortScratch) }}

func (s *sortScratch) release() {
	if cap(s.sub) <= 256 {
		clear(s.sub)
		sortPool.Put(s)
	}
}

// outsPool holds boxed exchange outcome slices (DoBatch's are the caller's
// to reuse); boxPool the empty boxes, so neither get nor put allocates.
var outsPool, boxPool = sync.Pool{}, sync.Pool{New: func() any { return new([]serve.BatchOutcome) }}

// getOuts returns a zeroed outcome slice of length n.
func getOuts(n int) []serve.BatchOutcome {
	if p, _ := outsPool.Get().(*[]serve.BatchOutcome); p != nil {
		outs := *p
		*p = nil
		boxPool.Put(p)
		if cap(outs) >= n {
			return outs[:n]
		}
	}
	return make([]serve.BatchOutcome, n)
}

// putOuts takes back outs once its consumer has copied what it keeps (a
// reply body is the consumer's), cleared; not above 256 entries.
func putOuts(outs []serve.BatchOutcome) {
	if c := cap(outs); c > 0 && c <= 256 {
		clear(outs[:c])
		p := boxPool.Get().(*[]serve.BatchOutcome)
		*p = outs[:0]
		outsPool.Put(p)
	}
}

// serveOwnerBatch ships one owner's share of a frame, falling back to
// the chain walk per entry when the owner is ejected, the exchange is
// lost, or an entry's error warrants failover. An entry the owner
// answered with a failover verdict walks on from its successor; the
// entries of a lost frame walk from the owner again, which may have
// executed them (a retry there can be a cache hit — what keeps a sweep
// exactly-once). The exchange runs under xctx, ctx canceled at the
// router's timeout; the fallbacks under ctx, and never hedged: a backup
// racing an owner that may be running the entry would run it twice.
func (r *Router) serveOwnerBatch(ctx, xctx context.Context, owner int, idxs []int, sub, items []serve.BatchItem, out []serve.BatchOutcome) {
	if r.admit(owner) {
		outs, err := r.exchange(xctx, owner, sub, nil)
		defer putOuts(outs)
		switch {
		case err == nil:
			r.noteSuccess(owner)
			batched := int64(0)
			for j, i := range idxs {
				o := &outs[j]
				if o.Err == nil {
					batched++
					out[i] = *o
					continue
				}
				switch classify(o.Err) {
				case verdictCtx, verdictReturn:
					out[i] = *o
				case verdictFailure:
					// The chain walk's rule for an attempt that failed.
					r.noteFailure(owner)
					fallthrough
				default:
					out[i] = r.serveChainKeyed(ctx, items[i], owner, o.Err, true)
				}
			}
			r.batched.Add(batched)
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
		out[i] = r.serveChainKeyed(ctx, items[i], -1, nil, true)
	}
}
