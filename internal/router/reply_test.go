package router

// Tests of the pooled buffers on the batch plane: a warm frame over stream
// replicas allocates per exchange, not per entry, in count and in bytes; a
// replica's own key passes through; the ownership rule — a body goes back
// to its pool only from the frame routine, after the response frame copied
// every payload that aliases it — holds under cancellation, timeouts,
// chain-walk fallbacks and sweeps sharing the same replicas; pooled owner
// sorts and outcome slices never cross frames; and a /batch reply carries
// its length.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// newStreamCluster starts n engines behind their HTTP handlers and returns
// their stream HTTPBackends, each passed through wrap (nil keeps it bare).
func newStreamCluster(t *testing.T, n int, wrap func(i int, b *HTTPBackend) Backend) []Backend {
	t.Helper()
	backends := make([]Backend, n)
	for i := range backends {
		eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
		srv := httptest.NewServer(eng.Handler())
		t.Cleanup(func() { srv.Close(); eng.Close() })
		hb := NewHTTPBackend(srv.URL)
		backends[i] = hb
		if wrap != nil {
			backends[i] = wrap(i, hb)
		}
	}
	return backends
}

// e7Grid is n distinct E7 assignments.
func e7Grid(n int) []core.Params {
	grid := make([]core.Params, n)
	for i := range grid {
		grid[i] = core.Params{"f": 0.9 + float64(i%10)*0.005, "bces": float64(int(16) << (i / 10))}
	}
	return grid
}

// A warm frame through Router.ServeEncodedBatch over three stream replicas
// allocates the same at 16 and at 64 entries, every owner served at both:
// an entry answered under its identity's key takes the identity's string,
// and the reply is walked straight into the outcomes.
func TestServeEncodedBatchStreamAllocsPerFrameNotPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r, err := New(newStreamCluster(t, 3, nil), Config{DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	// Entry j is owned by replica j%3, so both frames reach all three.
	var byOwner [3][]core.Params
	for _, p := range e7Grid(60) {
		o := r.ring.Place(serve.IdentOf("E7", p).Hash())
		byOwner[o] = append(byOwner[o], p)
	}
	frame := func(n int) []serve.BatchItem {
		items := make([]serve.BatchItem, n)
		for j := range items {
			own := byOwner[j%3]
			items[j] = itemOf(serve.IdentOf("E7", own[(j/3)%len(own)]), admit.Batch)
		}
		return items
	}
	ctx := context.Background()
	allocs := func(n int) float64 {
		items := frame(n)
		serveFrame := func() {
			for j, o := range r.ServeEncodedBatch(ctx, items) {
				if o.Err != nil || len(o.RawResponse.Raw) == 0 {
					t.Fatalf("entry %d: %d bytes, err %v", j, len(o.RawResponse.Raw), o.Err)
				}
			}
		}
		for i := 0; i < 5; i++ { // execute, then warm the pools and the streams
			serveFrame()
		}
		return testing.AllocsPerRun(200, serveFrame)
	}
	if a16, a64 := allocs(16), allocs(64); a16 != a64 {
		t.Fatalf("warm frame over three stream replicas: %v allocations at 16 entries, %v at 64", a16, a64)
	}
}

// A warm frame through Router.ServeEncodedBatchInto over three stream
// replicas, its outcome buffer reused and its reply bodies recycled as the
// frame routine recycles them, allocates the same bytes at 16 and at 64
// entries, within 1 KiB, both sides of the hop counted: the owner sort's
// scratch and every exchange's outcome slice are pooled. The collector is
// off while frames are counted, so no pool is emptied under the count.
func TestServeEncodedBatchStreamBytesPerFrameNotPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r, err := New(newStreamCluster(t, 3, nil), Config{DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	var byOwner [3][]core.Params // entry j is owned by replica j%3
	for _, p := range e7Grid(60) {
		o := r.ring.Place(serve.IdentOf("E7", p).Hash())
		byOwner[o] = append(byOwner[o], p)
	}
	ctx := context.Background()
	bytesPerFrame := func(n int) float64 {
		items := make([]serve.BatchItem, n)
		for j := range items {
			own := byOwner[j%3]
			items[j] = itemOf(serve.IdentOf("E7", own[(j/3)%len(own)]), admit.Batch)
		}
		var outs []serve.BatchOutcome
		serveFrame := func() {
			outs = r.ServeEncodedBatchInto(ctx, items, outs)
			for j, o := range outs {
				if o.Err != nil || len(o.RawResponse.Raw) == 0 {
					t.Fatalf("entry %d: %d bytes, err %v", j, len(o.RawResponse.Raw), o.Err)
				}
			}
			recycleReplies(outs)
		}
		for i := 0; i < 50; i++ { // execute, then warm the pools and the streams
			serveFrame()
		}
		const frames = 1000
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			serveFrame()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / frames
	}
	if b16, b64 := bytesPerFrame(16), bytesPerFrame(64); math.Abs(b64-b16) > 1024 {
		t.Fatalf("warm frame over three stream replicas: %.0f bytes allocated at 16 entries, %.0f at 64", b16, b64)
	}
}

// recycleReplies puts back a frame's reply bodies once nothing reads its
// outcomes' payloads any more, as the frame routine does.
func recycleReplies(outs []serve.BatchOutcome) {
	for _, o := range outs {
		if o.Reply != nil {
			httpapi.PutReplyBuffer(o.Reply)
		}
	}
}

// A replica that answers an entry under a key other than its identity's
// still has its own key passed through; one that answers the identity's
// key has it too.
func TestHTTPBackendPassesReplicaKeyThrough(t *testing.T) {
	srv := fakeStreamReplica(t, func(entries []httpapi.BatchEntry) []httpapi.BatchResult {
		if len(entries) != 2 {
			t.Errorf("fake replica got %d entries, want 2", len(entries))
		}
		return []httpapi.BatchResult{
			{OK: true, Key: serve.IdentOf("E7", nil).Key(), Payload: []byte("own")},
			{OK: true, Key: "replica-spelled-key", Payload: []byte("other")},
		}
	})
	items := []serve.BatchItem{itemOf(serve.IdentOf("E7", nil), admit.Batch),
		itemOf(serve.IdentOf("E1", nil), admit.Batch)}
	outs, err := NewHTTPBackend(srv.URL).DoBatch(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if got := outs[0].RawResponse; got.Key != items[0].Ident.Key() || string(got.Raw) != "own" {
		t.Errorf("entry 0: key %q payload %q, want the identity's key %q", got.Key, got.Raw, items[0].Ident.Key())
	}
	if got := outs[1].RawResponse; got.Key != "replica-spelled-key" || string(got.Raw) != "other" {
		t.Errorf("entry 1: key %q payload %q, want the replica's key passed through", got.Key, got.Raw)
	}
	if outs[0].Reply == nil || outs[1].Reply != nil {
		t.Errorf("the reply body rides the first outcome only: %v, %v", outs[0].Reply != nil, outs[1].Reply != nil)
	}
}

// lateBackend is the owner under stress: of every four frames one fails
// as a lost exchange and one is held past the router's timeout after its
// reply came back — an abandoned chain-walk leg still holding a reply
// body — whose payloads it checks again once it wakes.
type lateBackend struct {
	Backend
	calls   atomic.Int64
	held    atomic.Int64
	corrupt atomic.Int64
	hold    time.Duration
	want    func(key string) []byte
}

func (l *lateBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	k := l.calls.Add(1)
	if k%4 == 1 {
		return nil, ErrInjectedFault
	}
	outs, err := l.Backend.DoBatch(ctx, items)
	if err == nil && k%4 == 2 {
		l.held.Add(1)
		time.Sleep(l.hold)
		for _, o := range outs {
			if o.Err == nil && !bytes.Equal(o.RawResponse.Raw, l.want(o.RawResponse.Key)) {
				l.corrupt.Add(1)
			}
		}
	}
	return outs, err
}

// The ownership rule under -race: concurrent /batch frames go through a
// front-end over three stream replicas while one owner loses a frame in
// four and holds another past the router's timeout (so its entries fall
// back through the chain walk, whose legs are abandoned with a reply in
// hand), a quarter of the client requests are canceled mid-flight, and
// router sweeps run on the same replicas. Every payload that comes back —
// to a client, a sweep or the abandoned leg — is compared byte for byte
// with core's encode of its point.
func TestPooledReplyOutcomesSurviveFailoverAndCancel(t *testing.T) {
	grid := e7Grid(24)
	want := make(map[string][]byte, len(grid))
	ctx := context.Background()
	for _, p := range grid {
		exp, _ := core.ByID("E7")
		res, _, err := exp.RunWith(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[serve.IdentOf("E7", p).Key()] = res.Encode()
	}
	const timeout = 20 * time.Millisecond
	var late *lateBackend
	backends := newStreamCluster(t, 3, func(i int, hb *HTTPBackend) Backend {
		if i > 0 {
			return hb
		}
		late = &lateBackend{Backend: hb, hold: 2 * timeout, want: func(key string) []byte { return want[key] }}
		return late
	})
	r, err := New(backends, Config{Timeout: timeout, FailThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	sweepItems := func() []serve.BatchItem {
		items := make([]serve.BatchItem, len(grid))
		for i, p := range grid {
			items[i] = serve.BatchItem{ID: "E7", Params: p, Class: admit.Batch}
		}
		return items
	}
	for _, o := range r.ServeEncodedBatch(ctx, sweepItems()) { // execute every point once
		if o.Err != nil {
			t.Fatalf("warm-up: %v", o.Err)
		}
	}

	var ok, failed, mismatched atomic.Int64
	check := func(key string, payload []byte) {
		if bytes.Equal(payload, want[key]) {
			ok.Add(1)
		} else {
			mismatched.Add(1)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for f := 0; f < 25; f++ {
				entries := make([]httpapi.BatchEntry, 16)
				for j := range entries {
					entries[j] = httpapi.BatchEntry{ID: "E7", Class: admit.Batch,
						Params: grid[rng.Intn(len(grid))].Assignments()}
				}
				rctx, cancel := context.WithCancel(ctx)
				if f%4 == 3 {
					time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, cancel)
				}
				req, _ := http.NewRequestWithContext(rctx, http.MethodPost, front.URL+"/v1/batch",
					bytes.NewReader(httpapi.AppendBatchRequest(nil, entries)))
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					cancel()
					if errors.Is(err, context.Canceled) {
						continue
					}
					t.Errorf("POST /v1/batch: %v", err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				cancel()
				if err != nil {
					continue // canceled mid-body
				}
				results, err := httpapi.DecodeBatchResponse(body)
				if err != nil || len(results) != len(entries) {
					t.Errorf("response frame: %d results, err %v", len(results), err)
					return
				}
				for _, res := range results {
					if res.OK {
						check(res.Key, res.Payload)
					} else {
						failed.Add(1)
					}
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() { // sweeps through the router: their bodies go to the GC
		defer wg.Done()
		for s := 0; s < 10; s++ {
			for _, o := range r.ServeEncodedBatch(ctx, sweepItems()) {
				if o.Err == nil {
					check(o.RawResponse.Key, o.RawResponse.Raw)
				} else {
					failed.Add(1)
				}
			}
		}
	}()
	wg.Wait()
	waitInflightDrain(t, r) // abandoned legs still hold replies: let them check theirs
	if n := mismatched.Load() + late.corrupt.Load(); n > 0 {
		t.Fatalf("%d payloads differ from core's encode (%d returned, %d in abandoned legs)",
			n, mismatched.Load(), late.corrupt.Load())
	}
	if ok.Load() == 0 || late.held.Load() == 0 || r.Metrics().Failovers == 0 {
		t.Fatalf("the stress did not run its course: %d OK entries (%d failed), %d held legs, %d failovers",
			ok.Load(), failed.Load(), late.held.Load(), r.Metrics().Failovers)
	}
}

// A warm routed hit through Router.ServeEncoded over three stream
// replicas allocates at most routedStreamHitAllocs times, both sides of
// the hop counted: the primary attempt runs on the caller through a
// pooled frame of one and a pooled outcome slice, its reply channel is
// pooled, and the replica answers a frame of one that hits on its reader.
// The bound is the measured count and only ratchets down.
func TestRouterServeEncodedStreamHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const routedStreamHitAllocs = 10
	r, err := New(newStreamCluster(t, 3, nil), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := core.Params{"bces": 512, "f": 0.9}
	hit := func() {
		if rr, err := r.ServeEncoded(ctx, "E7", p); err != nil || len(rr.Raw) == 0 {
			t.Fatalf("routed ServeEncoded: %d bytes, err=%v", len(rr.Raw), err)
		}
	}
	for i := 0; i < 3*hedgeWarmup; i++ { // execute, warm the scoreboard, the pools and the stream
		hit()
	}
	if got := testing.AllocsPerRun(500, hit); got > routedStreamHitAllocs {
		t.Errorf("warm routed stream hit allocates %v times, want <= %d", got, routedStreamHitAllocs)
	}
}

// POST /v1/batch answers with the frame's length and no chunked framing on
// both faces, the engine's and the front-end's: the reply frame leaves in
// one Write of a known length. Thirty-two E7 entries put it well past the
// size below which net/http would have set the length itself.
func TestBatchReplyCarriesContentLength(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
	replica := httptest.NewServer(eng.Handler())
	t.Cleanup(func() { replica.Close(); eng.Close() })
	r, err := New([]Backend{NewHTTPBackend(replica.URL)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	grid := e7Grid(32)
	entries := make([]httpapi.BatchEntry, len(grid))
	for j, p := range grid {
		entries[j] = httpapi.BatchEntry{ID: "E7", Class: admit.Batch, Params: p.Assignments()}
	}
	frame := httpapi.AppendBatchRequest(nil, entries)
	for _, face := range []struct{ name, url string }{{"engine", replica.URL}, {"front-end", front.URL}} {
		resp, err := http.Post(face.url+"/v1/batch", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: POST /v1/batch: %v", face.name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d, read err %v", face.name, resp.StatusCode, err)
		}
		if results, err := httpapi.DecodeBatchResponse(body); err != nil || len(results) != len(entries) || len(body) < 4096 {
			t.Fatalf("%s: %d-byte frame, %d results, err %v", face.name, len(body), len(results), err)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %q for a %d-byte body",
				face.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}

// The pooled owner-sort scratch and exchange outcome slices under -race:
// frames go through Router.ServeEncodedBatchInto concurrently, each
// goroutine reusing its outcome buffer and recycling its reply bodies
// once it has read the frame, over three owners — a FaultBackend over an
// engine whose exchanges fail while frames are in flight (their entries
// walk the chain), a bare in-process engine and a stream replica — while
// routed requests draw from the same pools, some through the front-end's
// /v1/run handler, which recycles the winning reply body. Every outcome a
// frame reads must be its own entry's: the key of the identity it asked
// for, and core's encode of that point byte for byte; every envelope must
// carry its point's key and findings.
func TestPooledScratchAndOutcomesStayWithTheirFrame(t *testing.T) {
	grid := e7Grid(24)
	want := make(map[string][]byte, len(grid))
	findings := make(map[string][]string, len(grid))
	ctx := context.Background()
	for _, p := range grid {
		exp, _ := core.ByID("E7")
		res, _, err := exp.RunWith(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want[serve.IdentOf("E7", p).Key()] = res.Encode()
		findings[serve.IdentOf("E7", p).Key()] = res.Findings
	}
	newEngine := func() *serve.Engine {
		e := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
		t.Cleanup(e.Close)
		return e
	}
	fault := NewFaultBackend(NewEngineBackend(newEngine(), "fault"))
	fault.Degrade(100 * time.Microsecond) // in flight long enough to fail mid-run
	backends := append([]Backend{fault, NewEngineBackend(newEngine(), "engine")},
		newStreamCluster(t, 1, nil)...)
	r, err := New(backends, Config{FailThreshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	var mismatched, failed, served atomic.Int64
	check := func(it *serve.BatchItem, o serve.BatchOutcome) {
		switch {
		case o.Err != nil:
			failed.Add(1)
		case o.RawResponse.Key != it.Ident.Key() || !bytes.Equal(o.RawResponse.Raw, want[it.Ident.Key()]):
			mismatched.Add(1)
		default:
			served.Add(1)
		}
	}
	stop := make(chan struct{})
	var faulting sync.WaitGroup
	faulting.Add(1)
	go func() { // an exchange on the fault owner fails every few hundred microseconds
		defer faulting.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(300 * time.Microsecond):
				fault.ErrorBurst(1)
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			var outs []serve.BatchOutcome
			for f := 0; f < 40; f++ {
				items := make([]serve.BatchItem, 8+rng.Intn(40))
				for j := range items {
					items[j] = itemOf(serve.IdentOf("E7", grid[rng.Intn(len(grid))]), admit.Batch)
				}
				outs = r.ServeEncodedBatchInto(ctx, items, outs)
				for j, o := range outs {
					check(&items[j], o)
				}
				recycleReplies(outs)
			}
		}(c)
	}
	wg.Add(2)
	go func() { // routed requests: frames of one through the same pools
		defer wg.Done()
		for k := 0; k < 200; k++ {
			p := grid[k%len(grid)]
			it := itemOf(serve.IdentOf("E7", p), admit.Interactive)
			rr, err := r.ServeEncoded(ctx, "E7", p)
			check(&it, serve.BatchOutcome{RawResponse: rr, Err: err})
		}
	}()
	go func() { // and through the front-end's /v1/run, whose reply bodies go back to the pool
		defer wg.Done()
		for k := 0; k < 100; k++ {
			p := grid[k%len(grid)]
			resp, err := http.Get(front.URL + "/v1/run/E7?" + url.Values{"param": p.Assignments()}.Encode())
			if err != nil {
				t.Errorf("GET /v1/run/E7: %v", err)
				return
			}
			var env struct {
				Key      string   `json:"key"`
				Findings []string `json:"findings"`
			}
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			key := serve.IdentOf("E7", p).Key()
			switch {
			case err != nil || resp.StatusCode != http.StatusOK:
				failed.Add(1)
			case env.Key != key || !slices.Equal(env.Findings, findings[key]):
				mismatched.Add(1)
			default:
				served.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stop)
	faulting.Wait()
	if mismatched.Load() > 0 || failed.Load() > 0 {
		t.Fatalf("%d outcomes were another entry's and %d failed (%d served)",
			mismatched.Load(), failed.Load(), served.Load())
	}
	if served.Load() == 0 || fault.faults.Load() == 0 || r.Metrics().Failovers == 0 {
		t.Fatalf("the stress did not run its course: %d served, %d injected faults, %d failovers",
			served.Load(), fault.faults.Load(), r.Metrics().Failovers)
	}
}
