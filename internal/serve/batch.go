package serve

// The engine's multi-get surface: ServeEncodedBatchInto serves many
// (experiment, assignment, class) items in one call — interned warm hits
// inline off the slab; misses, and items named by a bare map, dispatched
// concurrently through the same singleflight + admission path single
// requests take — and the POST /batch handler exposes it over the varint
// frame contract in internal/httpapi. Every item is booked by the
// routines a single request takes (serveHit, then serveMissRaw on a miss),
// so the per-class conservation law (hits + deduped + sheds + executions
// == requests) holds whether a request arrived alone or in a frame of 64.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// BatchItem is one request in a ServeEncodedBatchInto call.
type BatchItem struct {
	// ID is the experiment to serve.
	ID string
	// Params is the parameter assignment (nil for defaults).
	Params core.Params
	// Class is the QoS class the item is served and accounted under
	// (per item, not per batch: a pre-assembled frame can mix classes).
	Class admit.Class
	// Ident, when set, is the interned identity of (ID, Params) — only
	// Intern and IdentOf hand one out. The frame routine and the router
	// attach it so the layers below serve, place and forward by it;
	// callers holding only a map leave it nil.
	Ident *Identity
}

// BatchOutcome is one item's result: exactly one of RawResponse (Err ==
// nil) or Err is meaningful. RawResponse.Raw follows the same slab
// aliasing contract as ServeEncoded.
type BatchOutcome struct {
	RawResponse RawResponse
	Err         error
	// Reply, set on the first outcome of a wire exchange, is the pooled
	// reply body its OK siblings' Raw alias. A parsed frame's release and
	// the front-end's /run handler recycle it once the payloads are copied
	// out; any other consumer drops it with the outcomes, to the GC.
	Reply *[]byte
}

// ServeEncodedBatchInto serves every item and returns outcomes in item
// order, in buf's storage when its capacity suffices: interned hits inline,
// one slab read each (hitPass); misses and map-only items concurrently,
// through the cache check, singleflight and admission a single request
// takes (serveMisses). One item's failure never fails its siblings. The
// context carries the caller's tenant, deadline, and cancellation; each
// item's class comes from the item itself.
func (e *Engine) ServeEncodedBatchInto(ctx context.Context, items []BatchItem, buf []BatchOutcome) []BatchOutcome {
	if ctx == nil {
		ctx = context.Background()
	}
	tb := e.tenantBook(ctx)
	// One clock read at the frame's arrival and one at each hit's end: a
	// held value, as the single-request door keeps (clockIn), would mix
	// latencies from different frame positions; a read is ~1 % of an entry.
	t0 := e.now()
	out, misses := e.hitPass(tb, t0, items, buf, nil)
	if len(misses) > 0 {
		e.serveMisses(ctx, tb, t0, items, out, misses)
	}
	return out
}

// hitPass is a batch's first pass, on the caller: it answers every
// interned item whose key is in the cache (booked by serveHit) into the
// outcomes it returns in buf's storage, and appends every other item's
// index to misses — an interned miss's row holding its resolved key and
// params for serveMisses, a map-only item's nothing yet.
func (e *Engine) hitPass(tb *tenantCounters, t0 time.Duration, items []BatchItem, buf []BatchOutcome, misses []int) ([]BatchOutcome, []int) {
	out := slices.Grow(buf[:0], len(items))[:len(items)]
	clear(out)
	for i := range items {
		it := &items[i]
		id := it.Ident
		switch {
		case id == nil: // a caller holding only a map: the miss pass resolves it
		case id.err != nil:
			out[i].Err = id.err
			continue
		case e.batchHit(tb, it, id.key, id.params, t0, &out[i]):
			continue
		default:
			out[i].RawResponse = RawResponse{Key: id.key, Params: id.params}
		}
		if cap(misses) == 0 { // misses come many at once (a sweep's wave): size once
			misses = make([]int, 0, len(items)-i)
		}
		misses = append(misses, i)
	}
	return out, misses
}

// batchHit answers item it from the cache when its key is there, booked
// by serveHit, into o.
func (e *Engine) batchHit(tb *tenantCounters, it *BatchItem, key string, p core.Params, t0 time.Duration, o *BatchOutcome) bool {
	raw, tail, lat, ok := e.serveHit(tb, it.Class, key, procID(), nil, t0, nil)
	if ok {
		o.RawResponse = RawResponse{ID: it.ID, Params: p, Key: key,
			Class: it.Class, Raw: raw, CacheHit: true, Latency: lat, tail: tail}
	}
	return ok
}

// serveMisses is the batch call's miss pass: the caller and up to
// Workers()-1 more goroutines each take the next item off one counter and
// serve it through serveMissRaw, with a single request's singleflight,
// admission, shedding, books and cancellation. More would only queue for
// the scheduler's Workers() slots, a reused goroutine grows its stack once
// where one per miss regrows it every time, and a lone miss starts none.
// out[i] carries in each interned miss's resolved key and params. A
// map-only item (no Ident) comes here unresolved: its worker resolves it
// and tries the cache (serveHit) first, so resolution runs on every worker
// instead of serially on the caller's goroutine; a hit there is timed
// from the call's arrival t0, as the scan times its hits. The caller
// starts the other goroutines only when it meets the first item that
// truly misses, so a pass of map-only hits (a repeated sweep) runs on the
// caller alone, as the scan would have.
func (e *Engine) serveMisses(ctx context.Context, tb *tenantCounters, t0 time.Duration, items []BatchItem, out []BatchOutcome, misses []int) {
	m := missPass{e: e, ctx: ctx, ctxClass: admit.ClassFrom(ctx), tb: tb, t0: t0,
		items: items, out: out, misses: misses}
	m.work(true)
}

// missPass is one serveMisses call; work serves items off next until none
// is left. It lives on the caller's stack, so a pass that starts no helper
// allocates nothing: at its first true miss the caller (lead) moves the
// rest of the pass to a heap copy, which the helpers share.
type missPass struct {
	e        *Engine
	ctx      context.Context
	ctxClass admit.Class // ctx's: an item of another class gets a context of its own
	tb       *tenantCounters
	t0       time.Duration
	items    []BatchItem
	out      []BatchOutcome
	misses   []int
	next     atomic.Int64
	wg       sync.WaitGroup
}

func (m *missPass) work(lead bool) {
	for k := m.next.Add(1) - 1; k < int64(len(m.misses)); k = m.next.Add(1) - 1 {
		i := m.misses[k]
		it := &m.items[i]
		key, params := m.out[i].RawResponse.Key, m.out[i].RawResponse.Params
		if it.Ident == nil {
			var err error
			if key, params, err = resolveKey(it.ID, it.Params); err != nil {
				m.out[i].Err = err
				continue
			}
			if m.e.batchHit(m.tb, it, key, params, m.t0, &m.out[i]) {
				continue
			}
		}
		if lead { // the first true miss: the rest of the pass goes on a heap copy
			lead = false
			if g := min(int64(len(m.misses))-k, int64(m.e.sched.Workers())) - 1; g > 0 {
				h := &missPass{e: m.e, ctx: m.ctx, ctxClass: m.ctxClass, tb: m.tb, t0: m.t0,
					items: m.items, out: m.out, misses: m.misses}
				h.next.Store(k + 1)
				h.wg.Add(int(g))
				for ; g > 0; g-- {
					go func() { defer h.wg.Done(); h.work(false) }()
				}
				defer h.wg.Wait()
				m = h
			}
		}
		ictx := m.ctx
		if m.ctxClass != it.Class {
			ictx = admit.WithClass(m.ctx, it.Class)
		}
		rr, err := m.e.serveMissRaw(ictx, it.Class, it.ID, key, params, untimed)
		if err != nil {
			m.out[i] = BatchOutcome{Err: err}
			continue
		}
		m.out[i].RawResponse = rr
	}
}

// HandleBatch is POST /batch on either face of the API — the engine's
// (serveFn = Engine.ServeEncodedBatchInto) and the routing front-end's
// (Router.ServeEncodedBatchInto): one frame in the request body, its
// response frame in the reply, both in pooled buffers. The whole-request
// error paths (unreadable body, bad QoS headers, bad frame) use the
// shared JSON envelope like every other endpoint; per-entry failures ride
// inside the frame as outcome words, with the status httpapi.ErrorStatus
// gives them under fallback (500 on a replica, 502 on the front-end), so
// one bad entry cannot fail its siblings.
func HandleBatch(w http.ResponseWriter, r *http.Request,
	serveFn func(context.Context, []BatchItem, []BatchOutcome) []BatchOutcome, fallback int) {
	in := httpapi.GetBuffer()
	defer httpapi.PutBuffer(in)
	bb := bytes.NewBuffer((*in)[:0])
	_, err := bb.ReadFrom(http.MaxBytesReader(w, r.Body, httpapi.MaxBatchBytes))
	if *in = bb.Bytes(); err != nil {
		httpapi.WriteServingError(w, fmt.Errorf("bad batch body: %w", err), http.StatusBadRequest)
		return
	}
	ctx, cancel, err := httpapi.RequestContext(r)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	defer cancel()
	buf := httpapi.GetBuffer()
	defer httpapi.PutBuffer(buf)
	frame, err := ServeBatchFrame(ctx, *in, (*buf)[:0], serveFn, fallback)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
		return
	}
	*buf = frame
	// One Write of a known length: the reply is not chunked.
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	_, _ = w.Write(frame)
}

// frameScratch is a parsed frame's pooled working set: the items, their
// response rows, the outcomes served into it and, on the replica stream,
// the indices its hit pass left to the miss pass.
type frameScratch struct {
	items   []BatchItem
	results []httpapi.BatchResult
	outs    []BatchOutcome
	misses  []int
}

var scratchPool = sync.Pool{New: func() any { return new(frameScratch) }}

// release recycles the reply bodies the outcomes carry — their payloads
// are copied into the response frame by now — then the scratch, cleared so
// the pool pins nothing, unless a frame above 256 entries grew it.
func (s *frameScratch) release() {
	for i := range s.outs {
		if r := s.outs[i].Reply; r != nil {
			httpapi.PutReplyBuffer(r)
		}
	}
	if cap(s.results) <= 256 { // results has a row per entry: the largest
		clear(s.items)
		clear(s.results)
		clear(s.outs)
		*s = frameScratch{s.items[:0], s.results[:0], s.outs[:0], s.misses[:0]}
		scratchPool.Put(s)
	}
}

// ServeBatchFrame is POST /batch's frame routine (the replica stream runs
// its halves, parseFrame and appendResponse, around its own hit and miss
// passes): walk the A21B request frame in body, naming each entry by its
// own bytes (Intern), serve them through serveFn, append the A21R response
// frame to dst, an entry's error as the status and retry hint
// httpapi.ErrorStatus gives it under fallback. The error is a frame that
// does not decode — the one failure that answers the whole frame instead
// of an entry. Nothing returned aliases body, which is read in full before
// anything is appended, so dst may share its storage; the outcomes' reply
// bodies (BatchOutcome.Reply) are recycled here, after the response frame
// holds its copy of every payload.
func ServeBatchFrame(ctx context.Context, body, dst []byte,
	serveFn func(context.Context, []BatchItem, []BatchOutcome) []BatchOutcome, fallback int) ([]byte, error) {
	s, err := parseFrame(body)
	if err != nil {
		return dst, err
	}
	defer s.release()
	s.outs = serveFn(ctx, s.items, s.outs)
	return s.appendResponse(dst, fallback), nil
}

// parseFrame walks the A21B request frame in body into a pooled scratch
// that aliases nothing of body; the error is a frame that does not decode.
func parseFrame(body []byte) (*frameScratch, error) {
	w, err := httpapi.WalkBatchRequest(body)
	if err != nil {
		return nil, err
	}
	s := scratchPool.Get().(*frameScratch)
	for w.Next() {
		ident, perr := Intern(w.ID, w.Run)
		if perr != nil {
			s.results = append(s.results, httpapi.BatchResult{Status: http.StatusBadRequest, Msg: perr.Error()})
			continue
		}
		s.items = append(s.items, BatchItem{ID: ident.id, Params: ident.params, Class: w.Class, Ident: ident})
		s.results = append(s.results, httpapi.BatchResult{})
	}
	if w.Err != nil {
		s.release()
		return nil, w.Err
	}
	return s, nil
}

// appendResponse appends the A21R response frame of s's outcomes to dst.
func (s *frameScratch) appendResponse(dst []byte, fallback int) []byte {
	results, i := s.results, -1
	for k := range s.outs {
		o := &s.outs[k]
		for i++; results[i].Status != 0; i++ { // on to the next entry not rejected by parseFrame
		}
		if o.Err != nil {
			status, _, retryAfter := httpapi.ErrorStatus(o.Err, fallback)
			results[i] = httpapi.BatchResult{Status: status, Msg: o.Err.Error(), RetryAfter: retryAfter}
			continue
		}
		rr := &o.RawResponse
		results[i] = httpapi.BatchResult{OK: true, CacheHit: rr.CacheHit, Shared: rr.Shared,
			Key: rr.Key, Payload: rr.Raw}
	}
	return httpapi.AppendBatchResponse(dst, results)
}
