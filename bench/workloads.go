package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// clientCount sizes the load to the machine: generator and server share
// the cores, so more clients than cores only queues.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// drawLen is each client's pre-drawn key sequence length; clients cycle
// through it, so the generator does no random-number work in the loop.
const drawLen = 1 << 14

// checkEvery is how often a reply is compared in full against its
// golden output (deep); every reply gets the cheap status, length, key
// and hit checks inside op.
const checkEvery = 64

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case wlEngineWarm:
		return &engineWarm{seed: seed}, nil
	case wlWireWarm:
		return &wireRun{seed: seed}, nil
	case wlWireRouted:
		return &wireRun{seed: seed, routed: true}, nil
	case wlWireBatch:
		return &wireBatch{seed: seed}, nil
	case wlSweepCold:
		return &sweepCold{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// httpClient is one closed-loop client: one keep-alive connection and a
// reused read buffer.
type httpClient struct {
	c   *http.Client
	buf []byte
}

func newHTTPClient() *httpClient {
	return &httpClient{
		c:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		buf: make([]byte, 0, 64<<10),
	}
}

// do sends req and reads the whole body into the client's buffer; the
// returned slice is valid until the next call.
func (h *httpClient) do(req *http.Request) (int, []byte, error) {
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b := h.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			h.buf = b
			return resp.StatusCode, nil, err
		}
	}
	h.buf = b
	return resp.StatusCode, b, nil
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

func setTrace(req *http.Request, ls *liveSpan) {
	if ls != nil {
		req.Header[traceHeader] = []string{strconv.FormatUint(ls.s.Trace, 10) + "-" + strconv.FormatUint(ls.s.ID, 10)}
	}
}

// fill warms eng with every key through ServeEncoded, comparing each
// payload with core's, then asks again and insists on a hit. The routed
// workloads fill every replica with every key. Placement alone would
// leave a key only on its owner; a long-running cluster is warmer than
// that, because every hedge and failover lands on a successor and memoizes
// there, and starting from that state keeps the warm workloads' hit ratio
// at exactly 1 even when the router hedges.
func fill(eng *serve.Engine, keys []variant) error {
	ctx := admit.WithClass(context.Background(), admit.Interactive)
	for pass := 0; pass < 2; pass++ {
		for i := range keys {
			k := &keys[i]
			rr, err := eng.ServeEncoded(ctx, k.ID, k.Params)
			if err != nil {
				return fmt.Errorf("warming %s: %w", k.Key, err)
			}
			if rr.Key != k.Key || !bytes.Equal(rr.Raw, k.Raw) || rr.CacheHit != (pass == 1) {
				return fmt.Errorf("warming %s: key %q hit %v, payload differs from core's", k.Key, rr.Key, rr.CacheHit)
			}
		}
	}
	return nil
}

// ---- engine-warm ----

type engineWarm struct {
	seed int64
	// n overrides the client count (the ladder's scaling rung).
	n     int
	eng   *serve.Engine
	keys  []variant
	ctx   context.Context
	draws [][]uint16
}

func (w *engineWarm) clients() int {
	if w.n > 0 {
		return w.n
	}
	return clientCount()
}
func (w *engineWarm) stride() int { return 16 }

func (w *engineWarm) setup(tr *tracer) error {
	w.keys = hotSet()
	if err := golden(w.keys); err != nil {
		return err
	}
	cfg := serve.Config{}
	if tr != nil {
		cfg.RunnerWith = tr.runner
	}
	w.eng = serve.NewEngine(cfg)
	w.ctx = admit.WithClass(context.Background(), admit.Interactive)
	if err := fill(w.eng, w.keys); err != nil {
		return fmt.Errorf("engine-warm: %w", err)
	}
	w.draws = make([][]uint16, clientCount())
	for c := range w.draws {
		w.draws[c] = zipfDraws(w.seed*31+int64(c), 1.1, len(w.keys), drawLen)
	}
	return nil
}

// op compares payload bytes inline (a 2 KB compare is tens of
// nanoseconds), on iterations that are not the timed ones.
func (w *engineWarm) op(c, seq int, _ *liveSpan) (int, int) {
	k := &w.keys[w.draws[c][seq%drawLen]]
	rr, err := w.eng.ServeEncoded(w.ctx, k.ID, k.Params)
	if err != nil || !rr.CacheHit || rr.Key != k.Key || len(rr.Raw) != len(k.Raw) {
		return 1, 1
	}
	if seq%checkEvery == 1 && !bytes.Equal(rr.Raw, k.Raw) {
		return 1, 1
	}
	return 1, 0
}

func (w *engineWarm) prime() error                            { return nil }
func (w *engineWarm) deep(int, int) int                       { return 0 }
func (w *engineWarm) engines() []*serve.Engine                { return []*serve.Engine{w.eng} }
func (w *engineWarm) router() *router.Router                  { return nil }
func (w *engineWarm) verify(d counters, win *window) []string { return verifyWarm(d, win) }
func (w *engineWarm) close() error                            { w.eng.Close(); return nil }

// ---- wire-warm and wire-routed ----

// wireRun is GET /v1/run/{id} (the default JSON envelope) over loopback:
// against one engine stack on the hot set (wire-warm), or against a
// router front-end over three HTTP replicas on the scatter grid
// (wire-routed).
type wireRun struct {
	seed   int64
	routed bool

	single  *engineStack
	cluster *clusterStack
	url     string
	keys    []variant
	// needle is each variant's `"key": "<key>"` as the envelope encodes
	// it; wantLen the envelope length seen while warming (latency_ms is
	// the only field whose width varies).
	needle  [][]byte
	wantLen []int
	cl      []*runClient
	scraper *httpClient
}

// runClient is one client's private state, allocated on its own so two
// clients never write to one cache line.
type runClient struct {
	*httpClient
	reqs  []*http.Request
	draws []uint16
	// last and lastBody are the most recent reply, kept for deep.
	last     int
	lastBody []byte
}

// runEnvelope is the fields of the /v1/run JSON envelope the checks
// read; the routed front-end's envelope has no report.
type runEnvelope struct {
	ID       string   `json:"id"`
	Key      string   `json:"key"`
	CacheHit bool     `json:"cache_hit"`
	Headline *float64 `json:"headline"`
	Findings []string `json:"findings"`
	Report   string   `json:"report"`
}

var cacheHitTrue = []byte(`"cache_hit": true`)

func (w *wireRun) name() string {
	if w.routed {
		return wlWireRouted
	}
	return wlWireWarm
}

func (w *wireRun) clients() int { return clientCount() }
func (w *wireRun) stride() int  { return 1 }

func (w *wireRun) setup(tr *tracer) error {
	var err error
	skew := 1.1
	if w.routed {
		w.keys = scatterSet()
		skew = 0 // the grid is drawn uniformly so every replica takes traffic
		if w.cluster, err = newClusterStack(tr); err != nil {
			return err
		}
		w.url = w.cluster.front.url
	} else {
		w.keys = hotSet()
		if w.single, err = newEngineStack(serve.Config{}, tr); err != nil {
			return err
		}
		w.url = w.single.ln.url
	}
	if err := golden(w.keys); err != nil {
		return err
	}
	nc := w.clients()
	w.cl = make([]*runClient, nc)
	for c := range w.cl {
		rc := &runClient{httpClient: newHTTPClient(),
			draws: zipfDraws(w.seed*31+int64(c), skew, len(w.keys), drawLen),
			reqs:  make([]*http.Request, len(w.keys))}
		for i := range w.keys {
			req, err := http.NewRequest(http.MethodGet, w.url+w.keys[i].Path, nil)
			if err != nil {
				return err
			}
			req.Header.Set(admit.HeaderClass, admit.Interactive.String())
			rc.reqs[i] = req
		}
		w.cl[c] = rc
	}
	w.scraper = newHTTPClient()
	w.needle = make([][]byte, len(w.keys))
	w.wantLen = make([]int, len(w.keys))
	for i := range w.keys {
		q, _ := json.Marshal(w.keys[i].Key) // a string always marshals
		w.needle[i] = append([]byte(`"key": `), q...)
	}
	for _, eng := range w.engines() {
		if err := fill(eng, w.keys); err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
	}
	return nil
}

// prime asks for every key once over the wire, spread over the clients so
// each opens its connection, and records the envelope lengths the window's
// cheap check compares against. The ramp that follows takes the routed
// stack's scoreboards past their warm-up.
func (w *wireRun) prime() error {
	for i := range w.keys {
		rc := w.cl[i%len(w.cl)]
		status, body, err := rc.do(rc.reqs[i])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("%s: priming %s: status %d: %v", w.name(), w.keys[i].Key, status, err)
		}
		w.wantLen[i] = len(body)
		if err := w.checkFull(i, body); err != nil {
			return fmt.Errorf("%s: priming %s: %w", w.name(), w.keys[i].Key, err)
		}
	}
	return nil
}

// checkFull decodes the envelope and compares it with core's output.
func (w *wireRun) checkFull(i int, body []byte) error {
	k := &w.keys[i]
	var env runEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return err
	}
	if env.ID != k.ID || env.Key != k.Key || !env.CacheHit {
		return fmt.Errorf("envelope id %q key %q hit %v", env.ID, env.Key, env.CacheHit)
	}
	if !w.routed && env.Report != k.Report {
		return fmt.Errorf("report differs from core's Render()")
	}
	if (env.Headline == nil) != (k.Headline == nil) || (k.Headline != nil && *env.Headline != *k.Headline) {
		return fmt.Errorf("headline differs from core's")
	}
	if len(env.Findings) != len(k.Findings) {
		return fmt.Errorf("findings differ from core's")
	}
	for j := range k.Findings {
		if env.Findings[j] != k.Findings[j] {
			return fmt.Errorf("findings differ from core's")
		}
	}
	return nil
}

// lenSlack is how far an envelope's length may sit from the one seen
// while warming: latency_ms prints between 1 and ~20 characters.
const lenSlack = 24

func (w *wireRun) op(c, seq int, ls *liveSpan) (int, int) {
	rc := w.cl[c]
	i := int(rc.draws[seq%drawLen])
	req := rc.reqs[i]
	setTrace(req, ls)
	status, body, err := rc.do(req)
	rc.last, rc.lastBody = i, body
	if err != nil || status != http.StatusOK {
		rc.lastBody = nil
		return 1, 1
	}
	if d := len(body) - w.wantLen[i]; d < -lenSlack || d > lenSlack ||
		!bytes.Contains(body, w.needle[i]) || !bytes.Contains(body, cacheHitTrue) {
		rc.lastBody = nil
		return 1, 1
	}
	return 1, 0
}

func (w *wireRun) deep(c, seq int) int {
	rc := w.cl[c]
	if seq%checkEvery != 0 || rc.lastBody == nil {
		return 0
	}
	if w.checkFull(rc.last, rc.lastBody) != nil {
		return 1
	}
	return 0
}

// background scrapes /v1/metrics and /v1/stats once a second, as a
// production daemon is scraped.
func (w *wireRun) background(ctx context.Context) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			for _, p := range []string{"/v1/metrics", "/v1/stats"} {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+p, nil)
				if err != nil {
					continue
				}
				_, _, _ = w.scraper.do(req) // a scrape is load, not a checked reply
			}
		}
	}
}

func (w *wireRun) engines() []*serve.Engine {
	if w.routed {
		return w.cluster.engines()
	}
	return []*serve.Engine{w.single.eng}
}

func (w *wireRun) router() *router.Router {
	if w.routed {
		return w.cluster.rt
	}
	return nil
}

func (w *wireRun) verify(d counters, win *window) []string { return verifyWarm(d, win) }

func (w *wireRun) close() error {
	for _, c := range w.cl {
		if c != nil {
			c.close()
		}
	}
	if w.scraper != nil {
		w.scraper.close()
	}
	if w.cluster != nil {
		return w.cluster.close()
	}
	if w.single != nil {
		return w.single.close()
	}
	return nil
}

// ---- wire-batch ----

// batchFrame is one pre-encoded request frame and the variant each
// entry asks for.
type batchFrame struct {
	body []byte
	idx  []uint16
}

const (
	batchEntries = 64
	// framesPerClient distinct frames are composed from the seed per
	// client and cycled.
	framesPerClient = 64
)

type wireBatch struct {
	seed    int64
	cluster *clusterStack
	keys    []variant
	cl      []*batchClient
}

type batchClient struct {
	*httpClient
	frames []batchFrame
	// last and lastResults are the most recent reply, kept for deep; the
	// results alias the client's read buffer.
	last        *batchFrame
	lastResults []httpapi.BatchResult
}

func (w *wireBatch) clients() int { return clientCount() }
func (w *wireBatch) stride() int  { return 1 }

func (w *wireBatch) frame(idx []uint16) batchFrame {
	entries := make([]httpapi.BatchEntry, len(idx))
	for j, i := range idx {
		k := &w.keys[i]
		entries[j] = httpapi.BatchEntry{ID: k.ID, Class: admit.Batch, Params: k.Assignments}
	}
	return batchFrame{idx: idx, body: httpapi.AppendBatchRequest(nil, entries)}
}

func (w *wireBatch) setup(tr *tracer) error {
	w.keys = scatterSet()
	if err := golden(w.keys); err != nil {
		return err
	}
	var err error
	if w.cluster, err = newClusterStack(tr); err != nil {
		return err
	}
	w.cl = make([]*batchClient, w.clients())
	for c := range w.cl {
		bc := &batchClient{httpClient: newHTTPClient()}
		draws := zipfDraws(w.seed*31+int64(c), 0, len(w.keys), framesPerClient*batchEntries)
		for f := 0; f < framesPerClient; f++ {
			bc.frames = append(bc.frames, w.frame(draws[f*batchEntries:(f+1)*batchEntries]))
		}
		w.cl[c] = bc
	}
	for _, eng := range w.engines() {
		if err := fill(eng, w.keys); err != nil {
			return fmt.Errorf("wire-batch: %w", err)
		}
	}
	return nil
}

// prime has every client post a frame listing every key once, which
// opens its connection and proves the batch path end to end (every entry a
// hit, every payload core's) before the drawn frames run.
func (w *wireBatch) prime() error {
	every := make([]uint16, len(w.keys))
	for i := range every {
		every[i] = uint16(i)
	}
	all := w.frame(every)
	for c := range w.cl {
		_, failed := w.post(c, &all, nil, true)
		if failed += w.compare(c); failed != 0 {
			return fmt.Errorf("wire-batch: priming client %d: %d of %d entries failed", c, failed, len(every))
		}
	}
	return nil
}

// post sends one frame and checks every entry's outcome, key, payload
// length and (when wantHit) hit flag.
func (w *wireBatch) post(c int, fr *batchFrame, ls *liveSpan, wantHit bool) (int, int) {
	bc := w.cl[c]
	n := len(fr.idx)
	bc.last, bc.lastResults = fr, nil
	req, err := http.NewRequest(http.MethodPost, w.cluster.front.url+"/v1/batch", bytes.NewReader(fr.body))
	if err != nil {
		return n, n
	}
	req.Header.Set(admit.HeaderClass, admit.Batch.String())
	req.Header.Set("Content-Type", "application/octet-stream")
	setTrace(req, ls)
	status, body, err := bc.do(req)
	if err != nil || status != http.StatusOK {
		return n, n
	}
	results, err := httpapi.DecodeBatchResponse(body)
	if err != nil || len(results) != n {
		return n, n
	}
	failed := 0
	for j, res := range results {
		k := &w.keys[fr.idx[j]]
		if !res.OK || res.Key != k.Key || len(res.Payload) != len(k.Raw) || (wantHit && !res.CacheHit) {
			failed++
		}
	}
	if failed == 0 {
		bc.lastResults = results
	}
	return n, failed
}

// compare checks the last reply's payloads byte for byte against core's
// encodings.
func (w *wireBatch) compare(c int) int {
	bc := w.cl[c]
	failed := 0
	for j, res := range bc.lastResults {
		if !bytes.Equal(res.Payload, w.keys[bc.last.idx[j]].Raw) {
			failed++
		}
	}
	return failed
}

func (w *wireBatch) op(c, seq int, ls *liveSpan) (int, int) {
	return w.post(c, &w.cl[c].frames[seq%framesPerClient], ls, true)
}

func (w *wireBatch) deep(c, seq int) int {
	if seq%checkEvery != 0 {
		return 0
	}
	return w.compare(c)
}

func (w *wireBatch) engines() []*serve.Engine                { return w.cluster.engines() }
func (w *wireBatch) router() *router.Router                  { return w.cluster.rt }
func (w *wireBatch) verify(d counters, win *window) []string { return verifyWarm(d, win) }

func (w *wireBatch) close() error {
	for _, c := range w.cl {
		if c != nil {
			c.close()
		}
	}
	if w.cluster != nil {
		return w.cluster.close()
	}
	return nil
}

// ---- sweep-cold ----

// sweepCacheBytes bounds sweep-cold's engine cache so the working set
// exceeds it and the slab evicts, where the four warm workloads fit.
const sweepCacheBytes = 4 << 20

type sweepCold struct {
	seed  int64
	stack *engineStack
	grid  coldGrid
	cl    *httpClient
	// calls numbers the grids; one client, so no synchronisation.
	calls int
	// lastLines are the last reply's point lines, kept for deep.
	lastLines [][]byte
	// want0 is call 0's points as core computes them, for prime.
	want0 []pointWant
}

// pointWant is what a sweep point's streamed line must carry.
type pointWant struct {
	key      string
	headline float64
}

// goldenPoint runs one grid point through core.
func goldenPoint(exp core.Experiment, p core.Params) (pointWant, bool) {
	res, resolved, err := exp.RunWith(context.Background(), p)
	h, ok := sweep.Headline(res)
	return pointWant{key: exp.CacheKey(resolved), headline: h}, err == nil && ok
}

// matches compares point i's streamed line with core's output.
func (pw pointWant) matches(line []byte, i int) bool {
	var pl sweep.PointLine
	return json.Unmarshal(line, &pl) == nil && pl.Point == i && pl.Key == pw.key &&
		pl.Headline != nil && *pl.Headline == pw.headline
}

func (w *sweepCold) clients() int { return 1 }
func (w *sweepCold) stride() int  { return 1 }

func (w *sweepCold) setup(tr *tracer) error {
	var err error
	if w.stack, err = newEngineStack(serve.Config{CacheBytes: sweepCacheBytes}, tr); err != nil {
		return err
	}
	w.grid = newColdGrid(w.seed)
	w.cl = newHTTPClient()
	w.calls = 0
	sp, err := w.grid.spec(0)
	if err != nil {
		return err
	}
	exp, _ := core.ByID(sp.ID)
	w.want0 = w.want0[:0]
	for _, p := range sp.Grid() {
		want, ok := goldenPoint(exp, p)
		if !ok {
			return fmt.Errorf("sweep-cold: core could not run %v", p)
		}
		w.want0 = append(w.want0, want)
	}
	return nil
}

// prime sweeps call 0, which opens the connection, and compares every
// line with core's output.
func (w *sweepCold) prime() error {
	_, failed := w.op(0, 0, nil)
	if w.lastLines == nil {
		return fmt.Errorf("sweep-cold: priming sweep failed")
	}
	for i, want := range w.want0 {
		if !want.matches(w.lastLines[i], i) {
			failed++
		}
	}
	if failed != 0 {
		return fmt.Errorf("sweep-cold: priming sweep failed %d output checks", failed)
	}
	return nil
}

var (
	sweepMiss    = []byte(`"cache_hit":false`)
	sweepSummary = []byte(`{"summary":`)
)

// op sweeps the next fresh grid and checks the reply for one line per
// point, every one a miss, and a summary reporting every point and 0
// cache hits.
func (w *sweepCold) op(_, _ int, ls *liveSpan) (int, int) {
	k := w.calls
	w.calls++
	w.lastLines = nil
	body, err := json.Marshal(sweep.Request{ID: "E7", Params: w.grid.axes(k)})
	if err != nil {
		return coldPoints, coldPoints
	}
	req, err := http.NewRequest(http.MethodPost, w.stack.ln.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return coldPoints, coldPoints
	}
	req.Header.Set("Content-Type", "application/json")
	setTrace(req, ls)
	status, out, err := w.cl.do(req)
	if err != nil || status != http.StatusOK {
		return coldPoints, coldPoints
	}
	lines := bytes.Split(bytes.TrimSuffix(out, []byte("\n")), []byte("\n"))
	if len(lines) != coldPoints+1 || !bytes.HasPrefix(lines[coldPoints], sweepSummary) {
		return coldPoints, coldPoints
	}
	var sum sweep.SummaryLine
	if err := json.Unmarshal(lines[coldPoints], &sum); err != nil ||
		sum.Summary.Points != coldPoints || sum.Summary.CacheHits != 0 {
		return coldPoints, coldPoints
	}
	failed := 0
	for _, l := range lines[:coldPoints] {
		if !bytes.Contains(l, sweepMiss) {
			failed++
		}
	}
	w.lastLines = lines[:coldPoints]
	return coldPoints, failed
}

// deep recomputes one point of every call through core, a rotating one:
// 1 point in 64, the cost spread evenly instead of doubling one call in 64.
func (w *sweepCold) deep(_, _ int) int {
	if w.lastLines == nil {
		return 0
	}
	sp, err := w.grid.spec(w.calls - 1)
	if err != nil {
		return 1
	}
	exp, _ := core.ByID(sp.ID)
	i := (w.calls - 1) % coldPoints
	if want, ok := goldenPoint(exp, sp.Grid()[i]); !ok || !want.matches(w.lastLines[i], i) {
		return 1
	}
	return 0
}

func (w *sweepCold) engines() []*serve.Engine { return []*serve.Engine{w.stack.eng} }
func (w *sweepCold) router() *router.Router   { return nil }

func (w *sweepCold) verify(d counters, win *window) []string {
	var out []string
	if d.hits != 0 || d.executions != d.requests || d.requests != win.attempted {
		out = append(out, fmt.Sprintf("sweep-cold: %d points, %d engine requests, %d executions, %d hits (want all equal, 0 hits)",
			win.attempted, d.requests, d.executions, d.hits))
	}
	if d.sheds != 0 || d.admitSheds != 0 {
		out = append(out, fmt.Sprintf("sweep-cold: %d engine sheds, %d scheduler sheds (want 0)", d.sheds, d.admitSheds))
	}
	return out
}

func (w *sweepCold) close() error {
	if w.cl != nil {
		w.cl.close()
	}
	if w.stack != nil {
		return w.stack.close()
	}
	return nil
}
