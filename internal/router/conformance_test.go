package router

// The conformance suite: one body, run on everything that serves a frame
// of serve.BatchItems — one outcome per item, in item order. Each row is
// one implementation in the shape of a small struct of funcs (serve a
// frame into a reusable buffer, the engines behind it, close), and every
// row runs the whole body on the same frames: the benchmark's two shapes
// (a warm frame of one, a 64-entry E7 frame), a frame of cold, map-only,
// duplicate, 404 and 400 entries, and the request frame FuzzBatchFrame
// seeds. The engines run the registry through gate, which records the
// envelope every miss ran under and parks "slow" IDs.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// conformRow is one implementation under the suite.
type conformRow struct {
	// serve serves items under ctx into buf's storage; a whole-frame
	// failure is the error.
	serve   func(ctx context.Context, items []serve.BatchItem, buf []serve.BatchOutcome) ([]serve.BatchOutcome, error)
	engines []*serve.Engine
	close   func()
}

// rowParts builds a row's engines, each on gate g, and collects what its
// close must shut, in reverse order.
type rowParts struct {
	g       *gate
	engines []*serve.Engine
	closers []func()
}

func (p *rowParts) engine() *serve.Engine {
	e := newGateEngine(p.g)
	p.engines = append(p.engines, e)
	p.closers = append(p.closers, e.Close)
	return e
}

// server serves h over loopback until the row closes.
func (p *rowParts) server(h http.Handler) string {
	srv := httptest.NewServer(h)
	p.closers = append(p.closers, srv.Close)
	return srv.URL
}

// mustNew is a router over backends with the default config.
func mustNew(t *testing.T, backends ...Backend) *Router {
	t.Helper()
	r, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (p *rowParts) row(serve func(context.Context, []serve.BatchItem, []serve.BatchOutcome) ([]serve.BatchOutcome, error)) conformRow {
	return conformRow{serve: serve, engines: p.engines, close: func() {
		close(p.g.release) // parked misses leave before their engines drain
		for i := len(p.closers) - 1; i >= 0; i-- {
			p.closers[i]()
		}
	}}
}

// routerServe is a router's frame call as a row's serve.
func routerServe(r *Router) func(context.Context, []serve.BatchItem, []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
	return func(ctx context.Context, items []serve.BatchItem, buf []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
		return r.ServeEncodedBatchInto(ctx, items, buf), nil
	}
}

// backendServe is one Backend exchange as a row's serve, its outcomes
// copied into buf and the exchange's slice handed back to the pool.
func backendServe(b Backend) func(context.Context, []serve.BatchItem, []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
	return func(ctx context.Context, items []serve.BatchItem, buf []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
		outs, err := b.DoBatch(ctx, items)
		defer putOuts(outs)
		return append(buf[:0], outs...), err
	}
}

// postBatch is POST /v1/batch on the face at base as a row's serve: the
// context's tenant and deadline ride as headers, each entry's class in the
// frame, and a failed entry comes back as its status and message.
func postBatch(base string) func(context.Context, []serve.BatchItem, []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
	return func(ctx context.Context, items []serve.BatchItem, buf []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
		entries := make([]httpapi.BatchEntry, len(items))
		for i, it := range items {
			entries[i] = httpapi.BatchEntry{ID: it.ID, Class: it.Class, Params: it.Params.Assignments()}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch",
			bytes.NewReader(httpapi.AppendBatchRequest(nil, entries)))
		if err != nil {
			return nil, err
		}
		if tenant := admit.TenantFrom(ctx); tenant != "" {
			req.Header.Set(admit.HeaderTenant, tenant)
		}
		if dl, ok := ctx.Deadline(); ok {
			req.Header.Set(admit.HeaderDeadlineMS, strconv.FormatInt(time.Until(dl).Milliseconds(), 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		results, err := httpapi.DecodeBatchResponse(body)
		if err != nil {
			return nil, fmt.Errorf("HTTP %d: %v", resp.StatusCode, err)
		}
		out := slices.Grow(buf[:0], len(results))[:len(results)]
		for i, res := range results {
			if !res.OK {
				out[i] = serve.BatchOutcome{Err: &httpapi.StatusError{Status: res.Status, Msg: res.Msg, RetryAfter: res.RetryAfter}}
				continue
			}
			out[i] = serve.BatchOutcome{RawResponse: serve.RawResponse{ID: items[i].ID, Params: items[i].Params,
				Key: res.Key, Class: items[i].Class, Raw: res.Payload, CacheHit: res.CacheHit, Shared: res.Shared}}
		}
		return out, nil
	}
}

// routerBackend is a Router as a Backend of another Router: the adapter a
// two-tier cluster needs while a router and a backend are served through
// different methods.
type routerBackend struct {
	r    *Router
	name string
}

func (b routerBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	return b.r.ServeEncodedBatchInto(ctx, items, getOuts(len(items))), nil
}
func (b routerBackend) Check() error { return nil }
func (b routerBackend) Name() string { return b.name }

// conformRows are the implementations, each built fresh on its own gate.
var conformRows = []struct {
	name string
	mk   func(t *testing.T, p *rowParts) conformRow
}{
	{"engine", func(t *testing.T, p *rowParts) conformRow {
		e := p.engine()
		return p.row(func(ctx context.Context, items []serve.BatchItem, buf []serve.BatchOutcome) ([]serve.BatchOutcome, error) {
			return e.ServeEncodedBatchInto(ctx, items, buf), nil
		})
	}},
	{"router over 3 engines", func(t *testing.T, p *rowParts) conformRow {
		var bs []Backend
		for i := 0; i < 3; i++ {
			bs = append(bs, NewEngineBackend(p.engine(), fmt.Sprintf("engine[%d]", i)))
		}
		return p.row(routerServe(mustNew(t, bs...)))
	}},
	{"FaultBackend", func(t *testing.T, p *rowParts) conformRow {
		return p.row(backendServe(NewFaultBackend(NewEngineBackend(p.engine(), "engine[0]"))))
	}},
	{"HTTPBackend over the stream", func(t *testing.T, p *rowParts) conformRow {
		return p.row(backendServe(NewHTTPBackend(p.server(p.engine().Handler()))))
	}},
	{"router over 3 stream replicas", func(t *testing.T, p *rowParts) conformRow {
		var bs []Backend
		for i := 0; i < 3; i++ {
			bs = append(bs, NewHTTPBackend(p.server(p.engine().Handler())))
		}
		return p.row(routerServe(mustNew(t, bs...)))
	}},
	{"router over 2 routers", func(t *testing.T, p *rowParts) conformRow {
		var tiers []Backend
		for i := 0; i < 2; i++ {
			inner := mustNew(t, NewEngineBackend(p.engine(), fmt.Sprintf("engine[%d]", 2*i)),
				NewEngineBackend(p.engine(), fmt.Sprintf("engine[%d]", 2*i+1)))
			tiers = append(tiers, routerBackend{r: inner, name: fmt.Sprintf("rack[%d]", i)})
		}
		return p.row(routerServe(mustNew(t, tiers...)))
	}},
	{"POST /v1/batch on the engine", func(t *testing.T, p *rowParts) conformRow {
		return p.row(postBatch(p.server(p.engine().Handler())))
	}},
	{"POST /v1/batch on the front-end", func(t *testing.T, p *rowParts) conformRow {
		var bs []Backend
		for i := 0; i < 3; i++ {
			bs = append(bs, NewEngineBackend(p.engine(), fmt.Sprintf("engine[%d]", i)))
		}
		return p.row(postBatch(p.server(mustNew(t, bs...).Handler())))
	}},
}

// conformFrame is one frame the body serves, cold and then warm.
type conformFrame struct {
	name  string
	items []serve.BatchItem
}

// conformFrames are the suite's frames, their keys disjoint so each is
// cold on its first pass. An interned entry carries its identity, as the
// frame routine's do; a map-only entry does not.
func conformFrames(t *testing.T) []conformFrame {
	t.Helper()
	interned := func(id string, p core.Params, class admit.Class) serve.BatchItem {
		return itemOf(serve.IdentOf(id, p), class)
	}
	grid := make([]serve.BatchItem, 64)
	for i := range grid {
		grid[i] = interned("E7", core.Params{"f": 0.5 + float64(i%16)*0.01, "bces": float64(int(16) << (i / 16))}, admit.Batch)
	}
	mixed := []serve.BatchItem{
		{ID: "E7", Params: core.Params{"f": 0.93, "bces": 32}, Class: admit.Interactive}, // map-only
		{ID: "E7", Params: core.Params{"f": 0.93, "bces": 32}, Class: admit.Interactive}, // its duplicate
		{ID: "NOPE", Params: core.Params{"x": 1}, Class: admit.Interactive},              // 404
		{ID: "E7", Params: core.Params{"f": 7}, Class: admit.Batch},                      // 400
		interned("E7", core.Params{"f": 0.91}, admit.Batch),
		interned("E7", core.Params{"f": 0.91}, admit.Batch),
		{ID: "E5", Class: admit.Batch},
	}
	// The request frame FuzzBatchFrame seeds, decoded as a replica would.
	seed, err := httpapi.DecodeBatchRequest(httpapi.AppendBatchRequest(nil, []httpapi.BatchEntry{
		{ID: "E7", Class: admit.Interactive, Params: []string{"f=0.95", "bces=64"}},
		{ID: "E1", Class: admit.Batch},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var fuzzSeed []serve.BatchItem
	for _, e := range seed {
		p, err := core.ParseParams(e.Params)
		if err != nil {
			t.Fatal(err)
		}
		fuzzSeed = append(fuzzSeed, serve.BatchItem{ID: e.ID, Params: p, Class: e.Class})
	}
	return []conformFrame{
		{"warm frame of one", []serve.BatchItem{interned("E7", nil, admit.Interactive)}},
		{"64-entry E7 frame", grid},
		{"mixed frame", mixed},
		{"FuzzBatchFrame seed", fuzzSeed},
	}
}

// conformStatus is the status a bad entry must come back with (0: none).
func conformStatus(it serve.BatchItem) int {
	switch {
	case it.ID == "NOPE":
		return http.StatusNotFound
	case it.Params["f"] > 1:
		return http.StatusBadRequest
	}
	return 0
}

// conformWant is core's encoding of every valid item in frames, by key.
func conformWant(t *testing.T, frames []conformFrame) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for _, f := range frames {
		for _, it := range f.items {
			if conformStatus(it) != 0 {
				continue
			}
			exp, _ := core.ByID(it.ID)
			res, _, err := exp.RunWith(context.Background(), it.Params)
			if err != nil {
				t.Fatal(err)
			}
			want[serve.IdentOf(it.ID, it.Params).Key()] = res.Encode()
		}
	}
	return want
}

func TestConformance(t *testing.T) {
	frames := conformFrames(t)
	want := conformWant(t, frames)
	for _, rc := range conformRows {
		t.Run(rc.name, func(t *testing.T) {
			p := &rowParts{g: &gate{release: make(chan struct{})}}
			row := rc.mk(t, p)
			defer row.close()
			runConformance(t, row, p.g, frames, want)
		})
	}
}

// runConformance is the body every row runs.
func runConformance(t *testing.T, row conformRow, g *gate, frames []conformFrame, want map[string][]byte) {
	const budget = time.Minute
	ctx, cancel := context.WithTimeout(admit.WithTenant(context.Background(), "tB"), budget)
	defer cancel()
	books := func() (perClass map[string]int64, tenant, executions int64) {
		perClass = map[string]int64{}
		for _, e := range row.engines {
			m := e.Metrics()
			for name, c := range m.Classes {
				perClass[name] += c.Requests
			}
			tenant += m.Tenants["tB"].Requests
			executions += m.Executions
		}
		return perClass, tenant, executions
	}
	wantClass := map[string]int64{}
	var served int64
	var buf []serve.BatchOutcome
	for _, f := range frames {
		keys := map[string]bool{}
		for pass, name := range []string{"cold", "warm"} {
			what := f.name + ", " + name
			items := slices.Clone(f.items) // a router annotates map-only items in place
			_, _, execBefore := books()
			outs, err := row.serve(ctx, items, buf)
			if err != nil {
				t.Fatalf("%s: the frame failed: %v", what, err)
			}
			if len(outs) != len(f.items) {
				t.Fatalf("%s: %d outcomes for %d items", what, len(outs), len(f.items))
			}
			ran := map[string]bool{} // keys an entry of this pass ran for
			for i, it := range f.items {
				o := outs[i]
				if status := conformStatus(it); status != 0 {
					if got, _, _ := httpapi.ErrorStatus(o.Err, 0); got != status {
						t.Fatalf("%s: item %d (%s %v) = %v, want its %d", what, i, it.ID, it.Params, o.Err, status)
					}
					continue
				}
				key := serve.IdentOf(it.ID, it.Params).Key()
				if o.Err != nil || o.RawResponse.Key != key || o.RawResponse.Class != it.Class || !bytes.Equal(o.RawResponse.Raw, want[key]) {
					t.Fatalf("%s: item %d = (%v, key %q, class %v, %d bytes), want core's %d-byte encoding under %q",
						what, i, o.Err, o.RawResponse.Key, o.RawResponse.Class, len(o.RawResponse.Raw), len(want[key]), key)
				}
				if pass == 1 && !o.RawResponse.CacheHit {
					t.Fatalf("%s: item %d is no cache hit", what, i)
				}
				ran[key] = ran[key] || !o.RawResponse.CacheHit && !o.RawResponse.Shared
				keys[key] = true
				wantClass[it.Class.String()]++
				served++
			}
			for key := range keys {
				if pass == 0 && !ran[key] {
					t.Fatalf("%s: no entry for %s ran cold", what, key)
				}
			}
			_, _, execAfter := books()
			if wantExec := int64(len(keys)) * int64(1-pass); execAfter-execBefore != wantExec {
				t.Fatalf("%s: %d executions, want %d", what, execAfter-execBefore, wantExec)
			}
			buf = outs
		}
		// The first pass's misses ran under each item's class and the
		// caller's tenant and deadline, whichever engine served them.
		for _, it := range f.items {
			key := serve.IdentOf(it.ID, it.Params).Key()
			if !keys[key] {
				continue
			}
			v, _ := g.seen.Load(key)
			if env, _ := v.(httpapi.Envelope); env.Class != it.Class || env.Tenant != "tB" ||
				env.Deadline <= 0 || env.Deadline > budget {
				t.Fatalf("%s: %s ran under %+v, want class %v, tenant tB and a deadline within %v",
					f.name, key, v, it.Class, budget)
			}
		}
	}
	// Each entry was booked once, under its class and the caller's tenant.
	perClass, tenant, _ := books()
	for _, c := range admit.Classes() {
		if perClass[c.String()] != wantClass[c.String()] {
			t.Fatalf("%s requests booked %d, want %d", c, perClass[c.String()], wantClass[c.String()])
		}
	}
	if tenant != served {
		t.Fatalf("tenant tB booked %d requests, want %d", tenant, served)
	}

	// A canceled context: the call returns, and no gated miss starts.
	dead, kill := context.WithCancel(ctx)
	kill()
	conformCanceled(t, "a canceled frame", row, dead, func() {},
		serve.BatchItem{ID: "slow-a", Class: admit.Interactive}, serve.BatchItem{ID: "slow-b", Class: admit.Batch})
	if n := g.started.Load(); n != 0 {
		t.Fatalf("a canceled frame started %d gated misses", n)
	}
	// Canceled while its miss runs: the call returns promptly, and the
	// miss sees the cancel wherever it runs.
	live, stop := context.WithCancel(ctx)
	conformCanceled(t, "a frame canceled in flight", row, live, func() {
		eventually(t, "the gated miss to start", func() bool { return g.started.Load() == 1 })
		stop()
	}, serve.BatchItem{ID: "slow-c", Class: admit.Interactive})
	eventually(t, "the gated miss to see the cancel", func() bool { return g.canceled.Load() == 1 })
	for i, e := range row.engines {
		eventually(t, fmt.Sprintf("engine %d's books to balance", i), func() bool { return balanced(e) })
	}
}

// conformCanceled serves items under ctx, which is canceled before the
// call or by cancel while it runs: the call returns within a watchdog,
// and the frame fails or every item does.
func conformCanceled(t *testing.T, what string, row conformRow, ctx context.Context, cancel func(), items ...serve.BatchItem) {
	t.Helper()
	type result struct {
		outs []serve.BatchOutcome
		err  error
	}
	done := make(chan result, 1)
	go func() {
		outs, err := row.serve(ctx, items, nil)
		done <- result{outs, err}
	}()
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the call did not return", what)
	}
	if res.err != nil {
		return
	}
	if len(res.outs) != len(items) {
		t.Fatalf("%s: %d outcomes for %d items", what, len(res.outs), len(items))
	}
	for i, o := range res.outs {
		if o.Err == nil {
			t.Fatalf("%s: item %d served", what, i)
		}
	}
}
