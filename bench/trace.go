package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
)

// Tracing from outside: the benchmark wraps what it builds — a timing
// middleware around the front-end and replica handlers, a timing
// router.Backend around each HTTPBackend, a timing serve RunnerWith —
// and records one span per call. Nothing inside the repo's packages is
// instrumented. With tracing off (every --trace 0 run) none of the
// wrappers is installed.

// Span levels, outermost first. A request's spans nest in this order;
// levels a workload has no layer for are simply absent.
const (
	spClient = iota
	spFrontend
	spBackend
	spReplica
	spCoreRun
	spLevels
)

var spanNames = [spLevels]string{"client", "frontend_handler", "backend_call", "replica_handler", "core_run"}

// traceHeader carries "<trace id>-<client span id>" from the generator
// to the first handler. HTTPBackend builds its own requests, so the
// header does not cross the router-to-replica hop: replica spans behind
// a front-end carry trace 0 and no parent.
const traceHeader = "X-Bench-Trace"

// maxSpans bounds the spans kept for the -spans file; sums and counts
// keep accumulating past it, so the self times cover the whole window.
const maxSpans = 1 << 17

type span struct {
	Trace, ID, Parent uint64
	Level             uint8
	Start, End        int64 // ns since the tracer was made
}

type tracer struct {
	on atomic.Bool
	// clock reads nanoseconds since the tracer was made; a test replaces
	// it to place spans at chosen instants.
	clock  func() int64
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// dur and cnt are per-level sums over every span ended while on.
	// covered[k] is the time inside level-k spans during which at least
	// one child span (level k+1) was open: the union, so children running
	// in parallel under one parent are not counted twice. A child whose
	// parent could not be found through its context (a coalesced flush
	// runs detached from the request) adds its whole duration instead.
	dur     [spLevels]atomic.Int64
	cnt     [spLevels]atomic.Int64
	covered [spLevels]atomic.Int64
}

func newTracer() *tracer {
	epoch := time.Now()
	return &tracer{clock: func() int64 { return int64(time.Since(epoch)) }, spans: make([]span, 0, maxSpans)}
}

// reset clears sums and kept spans; called between windows.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
	for k := 0; k < spLevels; k++ {
		t.dur[k].Store(0)
		t.cnt[k].Store(0)
		t.covered[k].Store(0)
	}
}

// liveSpan is an open span. It travels in the request context so child
// spans can find their parent.
type liveSpan struct {
	t      *tracer
	s      span
	parent *liveSpan

	mu         sync.Mutex
	open       int   // child spans currently open
	coverStart int64 // when open last went 0 -> 1
	covered    int64
}

type spanCtxKey struct{}

func spanFrom(ctx context.Context) *liveSpan {
	ls, _ := ctx.Value(spanCtxKey{}).(*liveSpan)
	return ls
}

func (t *tracer) start(level uint8, trace, parentID uint64, parent *liveSpan) *liveSpan {
	ls := &liveSpan{t: t, parent: parent}
	ls.s = span{Trace: trace, ID: t.nextID.Add(1), Parent: parentID, Level: level, Start: t.clock()}
	if parent != nil {
		ls.s.Trace, ls.s.Parent = parent.s.Trace, parent.s.ID
		parent.mu.Lock()
		if parent.open == 0 {
			parent.coverStart = ls.s.Start
		}
		parent.open++
		parent.mu.Unlock()
	}
	return ls
}

// child opens a span under the one ctx carries, or returns nil while
// tracing is off; end on a nil span does nothing, so a wrapper is two
// lines either way.
func (t *tracer) child(ctx context.Context, level uint8) *liveSpan {
	if !t.on.Load() {
		return nil
	}
	return t.start(level, 0, 0, spanFrom(ctx))
}

func (ls *liveSpan) end() {
	if ls == nil {
		return
	}
	t := ls.t
	ls.s.End = t.clock()
	d := ls.s.End - ls.s.Start
	k := ls.s.Level
	t.dur[k].Add(d)
	t.cnt[k].Add(1)
	t.covered[k].Add(ls.covered)
	if p := ls.parent; p != nil {
		p.mu.Lock()
		p.open--
		if p.open == 0 {
			p.covered += ls.s.End - p.coverStart
		}
		p.mu.Unlock()
	} else if k == spBackend || k == spCoreRun {
		t.covered[k-1].Add(d)
	}
	t.mu.Lock()
	if len(t.spans) < cap(t.spans) {
		t.spans = append(t.spans, ls.s)
	}
	t.mu.Unlock()
}

// middleware times a handler as one span of the given level.
func (t *tracer) middleware(level uint8, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		var trace, parent uint64
		if h := r.Header.Get(traceHeader); h != "" {
			a, b, _ := strings.Cut(h, "-")
			trace, _ = strconv.ParseUint(a, 10, 64)
			parent, _ = strconv.ParseUint(b, 10, 64)
		}
		ls := t.start(level, trace, parent, nil)
		defer ls.end()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, ls)))
	})
}

// tracedBackend times Do and DoBatch of the HTTPBackend it wraps.
type tracedBackend struct {
	*router.HTTPBackend
	t *tracer
}

func (b *tracedBackend) Do(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	defer b.t.child(ctx, spBackend).end()
	return b.HTTPBackend.Do(ctx, id, p)
}

func (b *tracedBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	defer b.t.child(ctx, spBackend).end()
	return b.HTTPBackend.DoBatch(ctx, items)
}

// runRegistry executes one experiment through core, as serve's default
// runner does.
func runRegistry(ctx context.Context, id string, p core.Params) (core.Result, error) {
	e, ok := core.ByID(id)
	if !ok {
		return core.Result{}, fmt.Errorf("%w %q", serve.ErrUnknownExperiment, id)
	}
	res, _, err := e.RunWith(ctx, p)
	return res, err
}

// runner is a serve.Config.RunnerWith that times each core execution.
func (t *tracer) runner(ctx context.Context, id string, p core.Params) (core.Result, error) {
	defer t.child(ctx, spCoreRun).end()
	return runRegistry(ctx, id, p)
}

// selfTimes splits the summed client time across the levels present.
// With T(client) = the summed client spans, each next level's blocking
// time is T(next) = T(level) * covered(level) / dur(level): the share of
// the level's time during which a child was open. A level's self time is
// T(level) - T(next), so the self times telescope to the client total by
// construction. Where a level's spans map one to one onto the next
// level's (client to first handler, backend call to replica handler) the
// covered time is the next level's summed duration.
func (t *tracer) selfTimes() (self [spLevels]float64, total float64) {
	var present []int
	for k := 0; k < spLevels; k++ {
		if t.cnt[k].Load() > 0 {
			present = append(present, k)
		}
	}
	if len(present) == 0 || present[0] != spClient {
		return self, 0
	}
	total = float64(t.dur[spClient].Load())
	cur := total
	for i, k := range present {
		if i == len(present)-1 {
			self[k] = cur
			break
		}
		next := present[i+1]
		cov := float64(t.dur[next].Load())
		if k == spFrontend || k == spReplica {
			cov = float64(t.covered[k].Load())
		}
		d := float64(t.dur[k].Load())
		if cov > d {
			cov = d
		}
		below := cur * cov / d
		self[k] = cur - below
		cur = below
	}
	return self, total
}

// writeSpans writes the kept spans as NDJSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Trace, s.ID, s.Parent, spanNames[s.Level], s.Start, s.End)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
