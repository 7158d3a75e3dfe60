package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// The layer ladder: each layer's public functions timed from outside,
// single-goroutine unless stated, on the workloads' own keys and
// payloads. Read top-down it is a subtraction: slab Get, engine hit,
// handler into a recorder, null socket, full wire row.

// timeNs returns the median, over batches that fill budget, of the mean
// nanoseconds per call of fn. The batch size is calibrated so one batch
// is about 200 us, and at least five batches run.
func timeNs(budget time.Duration, fn func()) float64 {
	t0 := time.Now()
	fn()
	est := max(time.Since(t0), time.Nanosecond)
	batch := min(max(int(200*time.Microsecond/est), 1), 100000)
	var per []float64
	for deadline := time.Now().Add(budget); len(per) < 5 || time.Now().Before(deadline); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// sink is a ResponseWriter that counts bytes: the "recorder" the handler
// rungs write into, without httptest's per-call buffers.
type sink struct {
	h    http.Header
	code int
	n    int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) WriteHeader(code int)        { s.code = code }
func (s *sink) Write(b []byte) (int, error) { s.n += len(b); return len(b), nil }
func (s *sink) reset()                      { clear(s.h); s.code, s.n = http.StatusOK, 0 }

// nullWorkload is the wire floor: the benchmark's own client against a
// listener whose handler writes a fixed body of the mean envelope size.
type nullWorkload struct {
	size int
	ln   *listener
	cl   []*runClient
}

func (w *nullWorkload) setup(*tracer) error {
	body := bytes.Repeat([]byte{'x'}, w.size)
	var err error
	w.ln, err = listen(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json; charset=utf-8")
		_, _ = rw.Write(body)
	}))
	if err != nil {
		return err
	}
	w.cl = make([]*runClient, clientCount())
	for c := range w.cl {
		req, err := http.NewRequest(http.MethodGet, w.ln.url+"/v1/run/E7", nil)
		if err != nil {
			return err
		}
		req.Header.Set(admit.HeaderClass, admit.Interactive.String())
		w.cl[c] = &runClient{httpClient: newHTTPClient(), reqs: []*http.Request{req}}
	}
	return nil
}

func (w *nullWorkload) op(c, _ int, _ *liveSpan) (int, int) {
	status, body, err := w.cl[c].do(w.cl[c].reqs[0])
	if err != nil || status != http.StatusOK || len(body) != w.size {
		return 1, 1
	}
	return 1, 0
}

func (w *nullWorkload) prime() error                      { return nil }
func (w *nullWorkload) clients() int                      { return len(w.cl) }
func (w *nullWorkload) stride() int                       { return 1 }
func (w *nullWorkload) deep(int, int) int                 { return 0 }
func (w *nullWorkload) engines() []*serve.Engine          { return nil }
func (w *nullWorkload) router() *router.Router            { return nil }
func (w *nullWorkload) verify(counters, *window) []string { return nil }

func (w *nullWorkload) close() error {
	for _, c := range w.cl {
		c.close()
	}
	return w.ln.close()
}

// runLadder measures every ladder metric within about total and returns
// them by name. It builds and tears down its own stacks, so it never
// disturbs the workload's counters.
func runLadder(total time.Duration, seed int64) (map[string]float64, error) {
	// 30 timed rungs at one budget each, three windows at three.
	budget := total / 39
	out := map[string]float64{}
	ctxI := admit.WithClass(context.Background(), admit.Interactive)
	ctxB := admit.WithClass(context.Background(), admit.Batch)

	hot, scatter := hotSet(), scatterSet()
	if err := golden(hot); err != nil {
		return nil, err
	}
	if err := golden(scatter); err != nil {
		return nil, err
	}
	next := func(vs []variant) func() *variant {
		i := -1
		return func() *variant { i = (i + 1) % len(vs); return &vs[i] }
	}

	// ---- core, httpapi, stats, admit: no stack needed ----
	nh := next(hot)
	out["core.decode_ns"] = timeNs(budget, func() { _, _ = core.DecodeResult(nh().Raw) })
	results := make([]core.Result, len(hot))
	for i := range hot {
		results[i], _ = core.DecodeResult(hot[i].Raw)
	}
	ri := -1
	out["core.render_ns"] = timeNs(budget, func() { ri = (ri + 1) % len(results); _ = results[ri].Render() })

	grid := newColdGrid(seed)
	e7, _ := core.ByID("E7")
	sp0, err := grid.spec(0)
	if err != nil {
		return nil, err
	}
	points := sp0.Grid()
	pi := -1
	out["core.run_ns"] = timeNs(budget, func() {
		pi = (pi + 1) % len(points)
		_, _, _ = e7.RunWith(context.Background(), points[pi])
	})
	e7res, _, err := e7.RunWith(context.Background(), points[0])
	if err != nil {
		return nil, err
	}
	e7raw := e7res.Encode()
	out["core.encode_ns"] = timeNs(budget, func() { _ = e7res.Encode() })

	ctxReq, err := http.NewRequest(http.MethodGet, "http://bench/v1/run/E7", nil)
	if err != nil {
		return nil, err
	}
	ctxReq.Header.Set(admit.HeaderClass, admit.Interactive.String())
	ctxReq.Header.Set(admit.HeaderDeadlineMS, "1000")
	out["httpapi.request_context_ns"] = timeNs(budget, func() {
		if _, cancel, err := httpapi.RequestContext(ctxReq); err == nil {
			cancel()
		}
	})

	entries := make([]httpapi.BatchEntry, batchEntries)
	bresults := make([]httpapi.BatchResult, batchEntries)
	items := make([]serve.BatchItem, batchEntries)
	for i := range entries {
		k := &scatter[i%len(scatter)]
		entries[i] = httpapi.BatchEntry{ID: k.ID, Class: admit.Batch, Params: k.Assignments}
		bresults[i] = httpapi.BatchResult{OK: true, CacheHit: true, Key: k.Key, Payload: k.Raw}
		items[i] = serve.BatchItem{ID: k.ID, Params: k.Params, Class: admit.Batch}
	}
	var reqFrame, respFrame []byte
	out["httpapi.batch_encode_ns_per_entry"] = timeNs(budget, func() {
		reqFrame = httpapi.AppendBatchRequest(reqFrame[:0], entries)
		respFrame = httpapi.AppendBatchResponse(respFrame[:0], bresults)
	}) / batchEntries
	out["httpapi.batch_decode_ns_per_entry"] = timeNs(budget, func() {
		_, _ = httpapi.DecodeBatchRequest(reqFrame)
		_, _ = httpapi.DecodeBatchResponse(respFrame)
	}) / batchEntries

	rec := stats.NewLatencyRecorder(4096, 1)
	out["stats.recorder_observe_ns"] = timeNs(budget, func() { rec.Observe(1e-6) })
	out["stats.recorder_observe_contended_ns"] = contended(budget, clientCount(), func() { rec.Observe(1e-6) })
	hist := stats.NewAtomicHistogram(nil)
	out["stats.histogram_observe_ns"] = timeNs(budget, func() { hist.Observe(1e-6) })

	sched := admit.NewScheduler(admit.Config{})
	noop := func() ([]byte, error) { return nil, nil }
	out["admit.run_interactive_ns"] = timeNs(budget, func() { _, _ = sched.Run(ctxI, noop) })
	out["admit.run_batch_ns"] = timeNs(budget, func() { _, _ = sched.Run(ctxB, noop) })
	sched.Close()

	// ---- serve: slab, engine, handler ----
	cache := serve.NewCache(16, 0)
	for i := range hot {
		cache.Set(hot[i].Key, hot[i].Raw)
	}
	out["serve.cache_get_ns"] = timeNs(budget, func() { _, _ = cache.Get(nh().Key) })
	bounded := serve.NewCacheSized(16, 0, sweepCacheBytes, serve.EvictLRU)
	setKeys := make([]string, 1<<15) // 32k keys x ~1.5 KB is >10x the cache: every Set appends and evicts
	for i := range setKeys {
		setKeys[i] = "E7?f=" + strconv.Itoa(i)
	}
	si := -1
	out["serve.cache_set_ns"] = timeNs(budget, func() { si = (si + 1) % len(setKeys); bounded.Set(setKeys[si], e7raw) })

	warm, err := newEngineStack(serve.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer warm.close()
	for _, set := range [][]variant{hot, scatter} {
		for i := range set {
			if _, err := warm.eng.ServeEncoded(ctxI, set[i].ID, set[i].Params); err != nil {
				return nil, fmt.Errorf("ladder: warming %s: %w", set[i].Key, err)
			}
		}
	}
	eng := warm.eng
	out["serve.engine_hit_ns"] = timeNs(budget, func() { k := nh(); _, _ = eng.ServeEncoded(ctxI, k.ID, k.Params) })
	out["serve.engine_hit_decoded_ns"] = timeNs(budget, func() { k := nh(); _, _ = eng.ServeWith(ctxI, k.ID, k.Params) })
	var outcomes []serve.BatchOutcome
	out["serve.engine_batch_ns_per_item"] = timeNs(budget, func() {
		outcomes = eng.ServeEncodedBatchInto(ctxB, items, outcomes)
	}) / batchEntries

	handler := eng.Handler()
	rw := &sink{h: http.Header{}}
	jsonReqs := make([]*http.Request, len(hot))
	binReqs := make([]*http.Request, len(hot))
	envelope := 0
	for i := range hot {
		if jsonReqs[i], err = http.NewRequest(http.MethodGet, "http://bench"+hot[i].Path, nil); err != nil {
			return nil, err
		}
		sep := "?"
		if len(hot[i].Assignments) > 0 {
			sep = "&"
		}
		if binReqs[i], err = http.NewRequest(http.MethodGet, "http://bench"+hot[i].Path+sep+"format=bin", nil); err != nil {
			return nil, err
		}
		rw.reset()
		handler.ServeHTTP(rw, jsonReqs[i])
		if rw.code != http.StatusOK {
			return nil, fmt.Errorf("ladder: handler answered %d for %s", rw.code, hot[i].Path)
		}
		envelope += rw.n
	}
	envelope /= len(hot)
	hi := -1
	out["serve.handler_json_ns"] = timeNs(budget, func() {
		hi = (hi + 1) % len(jsonReqs)
		rw.reset()
		handler.ServeHTTP(rw, jsonReqs[hi])
	})
	out["serve.handler_bin_ns"] = timeNs(budget, func() {
		hi = (hi + 1) % len(binReqs)
		rw.reset()
		handler.ServeHTTP(rw, binReqs[hi])
	})
	batchReq, err := http.NewRequest(http.MethodPost, "http://bench/v1/batch", nil)
	if err != nil {
		return nil, err
	}
	batchReq.Header.Set(admit.HeaderClass, admit.Batch.String())
	out["serve.handler_batch_ns_per_item"] = timeNs(budget, func() {
		batchReq.Body = io.NopCloser(bytes.NewReader(reqFrame))
		rw.reset()
		handler.ServeHTTP(rw, batchReq)
	}) / batchEntries

	out["obs.metrics_scrape_ms"] = timeNs(budget, func() { _ = eng.MetricsRegistry().WriteText(io.Discard) }) / 1e6
	out["obs.stats_snapshot_ms"] = timeNs(budget, func() { _ = eng.Metrics() }) / 1e6

	// engine_scale_eff: the engine-warm loop at one goroutine and at
	// clients goroutines, on its own engine.
	ew := &engineWarm{seed: seed, n: 1}
	if err := ew.setup(nil); err != nil {
		return nil, err
	}
	one := runWindow(ew, 3*budget, nil)
	ew.n = clientCount()
	all := runWindow(ew, 3*budget, nil)
	_ = ew.close()
	out["serve.engine_scale_eff"] = float64(all.completed) / (float64(ew.n) * float64(max(one.completed, 1)))

	// ---- miss path and sweep: a bounded engine on a socket ----
	cold, err := newEngineStack(serve.Config{CacheBytes: sweepCacheBytes}, nil)
	if err != nil {
		return nil, err
	}
	defer cold.close()
	mi := 0
	out["serve.engine_miss_ns"] = timeNs(budget, func() {
		mi++ // f stays below the cold grids' 0.55 floor, so these points are never requested twice either
		_, _ = cold.eng.ServeEncoded(ctxB, "E7", core.Params{"f": 0.5 + float64(mi)*coldShift})
	})
	axes := grid.axes(0)
	out["sweep.parse_grid_us"] = timeNs(budget, func() {
		if sp, err := sweep.ParseSpec("E7", axes); err == nil {
			_ = sp.Grid()
		}
	}) / 1e3
	call := 0
	out["sweep.run_points_per_s"] = coldPoints * 1e9 / timeNs(budget, func() {
		call++
		if sp, err := grid.spec(call); err == nil {
			_, _ = sweep.Run(context.Background(), cold.eng, sp, nil)
		}
	})
	hc := newHTTPClient()
	defer hc.close()
	if out["sweep.first_point_ms"], err = firstPointMs(budget, hc, cold.ln.url, func() []string {
		call++
		return grid.axes(call)
	}); err != nil {
		return nil, fmt.Errorf("ladder: sweep.first_point_ms: %w", err)
	}

	// ---- router: in-process shards, then the HTTP hop ----
	var backends []router.Backend
	for i := 0; i < replicaCount; i++ {
		e := serve.NewEngine(serve.Config{})
		defer e.Close()
		backends = append(backends, router.NewEngineBackend(e, "engine["+strconv.Itoa(i)+"]"))
	}
	rt, err := router.New(backends, router.Config{})
	if err != nil {
		return nil, err
	}
	ns := next(scatter)
	for pass := 0; pass < 2*len(scatter); pass++ {
		k := ns()
		if _, err := rt.ServeEncoded(ctxI, k.ID, k.Params); err != nil {
			return nil, fmt.Errorf("ladder: warming router %s: %w", k.Key, err)
		}
	}
	out["router.route_hit_ns"] = timeNs(budget, func() { k := ns(); _, _ = rt.ServeEncoded(ctxI, k.ID, k.Params) })
	out["router.route_batch_ns_per_item"] = timeNs(budget, func() { _ = rt.ServeEncodedBatch(ctxB, items) }) / batchEntries

	hb := router.NewHTTPBackend(warm.ln.url)
	out["router.http_backend_rtt_us"] = timeNs(budget, func() { k := ns(); _, _ = hb.Do(ctxI, k.ID, k.Params) }) / 1e3
	out["router.http_backend_batch_us_per_item"] = timeNs(budget, func() { _, _ = hb.DoBatch(ctxB, items) }) / batchEntries / 1e3

	// ---- wire: the null socket ----
	null := &nullWorkload{size: envelope}
	if err := null.setup(nil); err != nil {
		return nil, err
	}
	nw := runWindow(null, 3*budget, nil)
	if err := null.close(); err != nil {
		return nil, err
	}
	if nw.failed != 0 {
		return nil, fmt.Errorf("ladder: %d of %d null requests failed", nw.failed, nw.attempted)
	}
	out["wire.null_rtt_p50_us"] = nw.p50us()
	out["wire.null_ops_per_s"] = nw.opsPerS()
	out["wire.null_cpu_us_per_op"] = nw.cpuUsPerOp()
	out["wire.null_allocs_per_op"] = nw.allocsPerOp()
	return out, nil
}

// contended is the mean time of one fn call while n goroutines call it
// concurrently for budget.
func contended(budget time.Duration, n int, fn func()) float64 {
	var wg sync.WaitGroup
	calls := make([]int64, n)
	start := time.Now()
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k int64
			for time.Since(start) < budget {
				for i := 0; i < 256; i++ {
					fn()
				}
				k += 256
			}
			calls[g] = k
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total int64
	for _, k := range calls {
		total += k
	}
	return float64(elapsed) * float64(n) / float64(max(total, 1))
}

// firstPointMs is the median time from posting a cold sweep to reading
// its first NDJSON line; the rest of each reply is drained untimed.
func firstPointMs(budget time.Duration, hc *httpClient, base string, axes func() []string) (float64, error) {
	var ms []float64
	for deadline := time.Now().Add(budget); len(ms) < 5 || time.Now().Before(deadline); {
		body, err := json.Marshal(sweep.Request{ID: "E7", Params: axes()})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		resp, err := hc.c.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		first := time.Since(t0)
		_, _ = io.Copy(io.Discard, resp.Body) // the tail of the stream is not what this rung times
		resp.Body.Close()
		if err != nil || !bytes.Contains(line, sweepMiss) {
			return 0, fmt.Errorf("first sweep line %q: %v", line, err)
		}
		ms = append(ms, float64(first)/1e6)
	}
	return median(ms), nil
}
