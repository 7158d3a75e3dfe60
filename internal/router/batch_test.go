package router

// Tests for the batched data plane: the routed request's books, the
// pre-assembled frames of ServeEncodedBatch, the wire client
// (HTTPBackend.DoBatch against a live replica handler), and the
// front-end's POST /batch route.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// Concurrent batch-class ServeEncoded calls: every outcome is correct,
// the engines' books balance (a routed request is one engine request,
// nothing double-counted), and each request shipped one frame of one.
func TestServeEncodedBatchClassBooksBalance(t *testing.T) {
	r, engines := newRegistryCluster(t, 2, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	ctx := admit.WithClass(context.Background(), admit.Batch)
	const n = 48
	ids := []string{"E7", "E1", "E2", "E4"}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr, err := r.ServeEncoded(ctx, ids[i%len(ids)], nil)
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := rr.Result(); err != nil {
				errs[i] = fmt.Errorf("bad payload: %w", err)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if r.requests.Load() != n {
		t.Fatalf("router counted %d requests, want %d", r.requests.Load(), n)
	}
	var engReqs int64
	for i, e := range engines {
		m := e.Metrics()
		engReqs += m.Requests
		for class, c := range m.Classes {
			if err := c.Balance(); err != nil {
				t.Fatalf("engine[%d] %s books: %v", i, class, err)
			}
		}
	}
	if engReqs != n {
		t.Fatalf("engine books: requests=%d, want %d", engReqs, n)
	}
	var shipped int64
	for _, h := range r.Metrics().Health {
		shipped += h.Requests
	}
	if snap := r.batchSize.Snapshot(); snap.Count != n || snap.Sum != float64(shipped) || shipped != n {
		t.Fatalf("batch size histogram observed %d frames of %v entries, backends counted %d; want %d frames of one",
			snap.Count, snap.Sum, shipped, n)
	}
}

// An entry its owner answered with a failover verdict inside a
// pre-assembled frame goes on to the successor, not back to the owner:
// each replica sees it once, and that is one failover.
func TestServeEncodedBatchAnsweredEntryFailsOverPastOwner(t *testing.T) {
	eng := newTestEngine(t)
	var calls [2]atomic.Int64
	owner := -1
	backends := make([]Backend, 2)
	for i := range backends {
		backends[i] = backendFunc{name: fmt.Sprintf("b%d", i),
			do: func(ctx context.Context, id string, p core.Params) (serve.Response, error) {
				calls[i].Add(1)
				if i == owner {
					return serve.Response{}, &admit.ShedError{Class: admit.ClassFrom(ctx), RetryAfter: time.Second}
				}
				return eng.ServeWith(ctx, id, p)
			}}
	}
	r, err := New(backends, Config{})
	if err != nil {
		t.Fatal(err)
	}
	owner = ownerOf(r, "E7", nil)
	ctx := admit.WithClass(context.Background(), admit.Batch)
	outs := r.ServeEncodedBatch(ctx, []serve.BatchItem{{ID: "E7", Class: admit.Batch}})
	if outs[0].Err != nil || outs[0].RawResponse.ID != "E7" {
		t.Fatalf("entry: id %q err %v, want E7 served by the successor", outs[0].RawResponse.ID, outs[0].Err)
	}
	if o, s := calls[owner].Load(), calls[1-owner].Load(); o != 1 || s != 1 {
		t.Fatalf("owner saw the entry %d times, successor %d; want 1 and 1", o, s)
	}
	if got := r.Metrics().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
}

// lostFrameOwner is an owner whose multi-entry frames are lost in transit
// before it runs them, and whose single attempts hang until abandoned: the
// slow primary a hedge is for.
type lostFrameOwner struct{ Backend }

func (b lostFrameOwner) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	if len(items) > 1 {
		return nil, errors.New("frame lost in transit")
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// When an owner loses an interactive frame, its entries walk the chain
// from the owner again, and the owner hangs. A routed request on the same
// scoreboard hedges at the 1 ms floor; the frame's entries must not (frame
// entries never hedge, DESIGN §7): each is served past the owner and
// executes exactly once. No sleep: the owner answers only its abandonment,
// and the attempt bound ends the walk's wait.
func TestLostFrameFallbackNeverHedges(t *testing.T) {
	var mu sync.Mutex
	executed := map[string]int{}
	backends := make([]Backend, 3)
	for i := range backends {
		eng := serve.NewEngine(serve.Config{Shards: 2, Workers: 2,
			RunnerWith: func(_ context.Context, id string, _ core.Params) (core.Result, error) {
				mu.Lock()
				executed[id]++
				mu.Unlock()
				return fakeResult(id), nil
			}})
		defer eng.Close()
		backends[i] = plainBackend{NewEngineBackend(eng, fmt.Sprintf("engine[%d]", i))}
	}
	backends[0] = lostFrameOwner{backends[0]}
	primed := func() *Router {
		r, err := New(backends, Config{Timeout: 200 * time.Millisecond, ProbeAfter: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for b := range backends {
			primeScore(r, b, time.Microsecond)
		}
		return r
	}
	control := primed()
	var owned []string
	for i := 0; len(owned) < 3; i++ {
		if id := fmt.Sprintf("LF%d", i); ownerOf(control, id, nil) == 0 {
			owned = append(owned, id)
		}
	}
	ctx := context.Background() // untagged: interactive
	if _, err := control.ServeEncoded(ctx, owned[0], nil); err != nil || control.Metrics().Hedges != 1 {
		t.Fatalf("routed request on the hanging owner: err %v, %d hedges; want a hedge to answer it", err, control.Metrics().Hedges)
	}

	r := primed()
	outs := r.ServeEncodedBatch(ctx, []serve.BatchItem{
		{ID: owned[1], Class: admit.Interactive}, {ID: owned[2], Class: admit.Interactive}})
	for i, o := range outs {
		if o.Err != nil || o.RawResponse.ID != owned[1+i] {
			t.Fatalf("entry %d: id %q err %v; want %s served past the owner", i, o.RawResponse.ID, o.Err, owned[1+i])
		}
	}
	if h := r.Metrics().Hedges; h != 0 {
		t.Fatalf("a lost frame's fallback fired %d hedges, want 0", h)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range owned[1:] {
		if executed[id] != 1 {
			t.Fatalf("entry %s executed %d times, want exactly 1", id, executed[id])
		}
	}
}

// HTTPBackend.DoBatch against a live replica: one POST /v1/batch
// exchange serves every entry, per-entry errors come back as
// replica answers the router taxonomy classifies like single
// requests, and payloads decode.
func TestHTTPBackendDoBatch(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
	defer eng.Close()
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()
	b := NewHTTPBackend(srv.URL)

	items := []serve.BatchItem{
		{ID: "E7", Class: admit.Interactive},
		{ID: "E1", Class: admit.Batch},
		{ID: "NOPE", Class: admit.Interactive},
	}
	outs, err := b.DoBatch(context.Background(), items)
	if err != nil {
		t.Fatalf("DoBatch: %v", err)
	}
	if len(outs) != len(items) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(items))
	}
	for i := 0; i < 2; i++ {
		if outs[i].Err != nil {
			t.Fatalf("entry %d: %v", i, outs[i].Err)
		}
		rr := outs[i].RawResponse
		if rr.ID != items[i].ID || rr.Key == "" {
			t.Fatalf("entry %d: bad identity %+v", i, rr)
		}
		if _, err := rr.Result(); err != nil {
			t.Fatalf("entry %d: bad payload: %v", i, err)
		}
	}
	if outs[2].Err == nil {
		t.Fatal("unknown experiment served without error")
	}
	if replicaStatus(outs[2].Err) != http.StatusNotFound {
		t.Fatalf("unknown experiment error = %v, want embedded 404", outs[2].Err)
	}
	if v := classify(outs[2].Err); v != verdictReturn {
		t.Fatalf("404 entry classifies as %d, want verdictReturn", v)
	}

	// Repeat: every entry is the replica's cache hit, carried in the
	// outcome word.
	outs, err = b.DoBatch(context.Background(), items[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Err != nil || !o.RawResponse.CacheHit {
			t.Fatalf("repeat entry %d not a cache hit: %+v", i, o)
		}
	}
}

// The front-end's POST /batch: a frame in, per-entry outcomes out,
// served through the routed batch plane (placement intact).
func TestRouterBatchEndpoint(t *testing.T) {
	r, engines := newRegistryCluster(t, 3, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	entries := []httpapi.BatchEntry{
		{ID: "E7", Class: admit.Batch},
		{ID: "E7", Class: admit.Batch, Params: []string{"f=0.95"}},
		{ID: "E1", Class: admit.Batch},
		// Params on an unknown ID fail resolution before admission, so
		// the entry answers 404 in-frame without an engine request.
		{ID: "NOPE", Class: admit.Interactive, Params: []string{"x=1"}},
	}
	frame := httpapi.AppendBatchRequest(nil, entries)
	resp, err := http.Post(srv.URL+"/v1/batch", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("POST /v1/batch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := httpapi.DecodeBatchResponse(body)
	if err != nil {
		t.Fatalf("DecodeBatchResponse: %v", err)
	}
	if len(results) != len(entries) {
		t.Fatalf("got %d results, want %d", len(results), len(entries))
	}
	for i := 0; i < 3; i++ {
		if !results[i].OK {
			t.Fatalf("entry %d: HTTP %d: %s", i, results[i].Status, results[i].Msg)
		}
	}
	if r := results[3]; r.OK || r.Status != http.StatusNotFound {
		t.Fatalf("unknown-ID entry: %+v, want 404", r)
	}
	// The three served entries were answered inside their owners' frames,
	// and each landed on its ring owner (books on the engines sum to the
	// served entries).
	if got := r.batched.Load(); got != 3 {
		t.Fatalf("%d entries answered inside a frame, want 3", got)
	}
	var engReqs int64
	for _, e := range engines {
		engReqs += e.Metrics().Requests
	}
	if engReqs != 3 {
		t.Fatalf("engines saw %d requests, want 3", engReqs)
	}
}

// ServeEncodedBatch keeps its books whether a frame has one owner (served
// on the caller's goroutine) or several (one goroutine each): outcomes in
// item order, one batch-size observation per owner,
// every entry counted toward its owner, nothing left in flight.
func TestServeEncodedBatchBooksPerOwner(t *testing.T) {
	r, engines := newRegistryCluster(t, 3, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	ids := []string{"E7", "E1", "E2", "E4", "E5", "E9", "E12", "E18"}
	for _, frameIDs := range [][]string{{"E7", "E7", "E7", "E7", "E7"}, ids} {
		items := make([]serve.BatchItem, len(frameIDs))
		perOwner := map[int]int64{}
		for i, id := range frameIDs {
			items[i] = serve.BatchItem{ID: id, Class: admit.Batch}
			perOwner[ownerOf(r, id, nil)]++
		}
		if (len(perOwner) == 1) != (frameIDs[0] == frameIDs[1]) {
			t.Fatalf("frame %v spans %d owners", frameIDs, len(perOwner))
		}
		before, sizes := r.Metrics(), r.batchSize.Snapshot()
		for i, o := range r.ServeEncodedBatch(context.Background(), items) {
			if o.Err != nil || o.RawResponse.ID != frameIDs[i] {
				t.Fatalf("outcome %d: id %q err %v, want %s", i, o.RawResponse.ID, o.Err, frameIDs[i])
			}
		}
		after, snap := r.Metrics(), r.batchSize.Snapshot()
		if snap.Count-sizes.Count != uint64(len(perOwner)) || snap.Sum-sizes.Sum != float64(len(items)) {
			t.Errorf("%d owners: batch_size saw %d flushes of %v entries, want %d of %d",
				len(perOwner), snap.Count-sizes.Count, snap.Sum-sizes.Sum, len(perOwner), len(items))
		}
		for b := range after.Health {
			if got := after.Health[b].Requests - before.Health[b].Requests; got != perOwner[b] {
				t.Errorf("backend %d counted %d requests, owns %d entries", b, got, perOwner[b])
			}
			if after.Health[b].Inflight != 0 {
				t.Errorf("backend %d left %d in flight", b, after.Health[b].Inflight)
			}
		}
	}
}

// An attempt whose frame fails as a whole (transport error) must fail
// over: the request still completes through the chain on a sibling,
// and the dead replica's health accounting sees the failure.
func TestCoalescedFlushFailsOverOnTransportError(t *testing.T) {
	engines := make([]*serve.Engine, 2)
	killable := make([]*killableBackend, 2)
	backends := make([]Backend, 2)
	for i := range engines {
		engines[i] = serve.NewEngine(serve.Config{Shards: 4, Workers: 2})
		defer engines[i].Close()
		killable[i] = &killableBackend{Backend: NewEngineBackend(engines[i], fmt.Sprintf("engine[%d]", i))}
		backends[i] = killable[i]
	}
	r, err := New(backends, Config{FailThreshold: 1, ProbeAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx := admit.WithClass(context.Background(), admit.Batch)
	owner := ownerOf(r, "E7", nil)
	killable[owner].dead.Store(true)

	rr, err := r.ServeEncoded(ctx, "E7", nil)
	if err != nil {
		t.Fatalf("ServeEncoded with dead owner: %v", err)
	}
	if _, err := rr.Result(); err != nil {
		t.Fatalf("bad payload after failover: %v", err)
	}
	if !r.Metrics().Health[owner].Ejected {
		t.Fatal("owner's flush failure should eject it at FailThreshold 1")
	}
	if got := engines[1-owner].Metrics().Executions + engines[owner].Metrics().Executions; got != 1 {
		t.Fatalf("cluster executed %d times, want exactly 1", got)
	}
	var hadError bool
	for _, h := range r.Metrics().Health {
		if h.Failures > 0 {
			hadError = true
		}
	}
	if !hadError {
		t.Fatal("dead owner's flush failure not in health accounting")
	}
}

// errorsIs helper kept out of the hot assertions for readability.
var _ = errors.Is

// A warm routed hit over in-process replicas allocates nothing, bare or
// with params: the request is named by its interned identity, its chain
// is placed into a stack buffer, and the owner's engine serves it on the
// caller's goroutine through a pooled frame of one. Each bound is the
// measured count and only ratchets down.
func TestRouterServeEncodedWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	r, engines := newRegistryCluster(t, 3, "", Config{})
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		p    core.Params
		max  float64
	}{
		{"bare", nil, 0},
		{"params", core.Params{"bces": 512, "f": 0.9}, 0},
	} {
		hit := func() {
			if rr, err := r.ServeEncoded(ctx, "E7", tc.p); err != nil || len(rr.Raw) == 0 {
				t.Fatalf("%s: routed ServeEncoded: %d bytes, err=%v", tc.name, len(rr.Raw), err)
			}
		}
		for i := 0; i < 3*hedgeWarmup; i++ { // fill the cache, warm the pool
			hit()
		}
		if got := testing.AllocsPerRun(200, hit); got > tc.max {
			t.Errorf("%s: warm routed hit allocates %v times, want <= %v", tc.name, got, tc.max)
		}
	}
}
