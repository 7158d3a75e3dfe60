package router

// Tests for the batched data plane: the routed request's books, the
// pre-assembled frames of ServeEncodedBatch and their fallbacks. What
// every frame server shares — HTTPBackend.DoBatch and the front-end's
// POST /v1/batch among them — is the conformance suite's.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
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
	owner := &answerBackend{err: &admit.ShedError{Class: admit.Batch, RetryAfter: time.Second}}
	r, err := New([]Backend{owner, NewEngineBackend(eng, "engine[1]")}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	id := keyOwnedBy(t, r, 0)
	outs := r.ServeEncodedBatch(context.Background(), []serve.BatchItem{{ID: id, Class: admit.Batch}})
	if outs[0].Err != nil || outs[0].RawResponse.ID != id {
		t.Fatalf("entry: id %q err %v, want %s served by the successor", outs[0].RawResponse.ID, outs[0].Err, id)
	}
	if o, s := owner.entries.Load(), eng.Metrics().Requests; o != 1 || s != 1 {
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

// ServeEncodedBatch keeps its books whether a frame has one owner (served
// on the caller's goroutine) or several (one goroutine each): outcomes in
// item order, every entry counted as answered inside a frame, one
// batch-size observation per owner, every entry counted toward its owner,
// nothing left in flight.
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
		before, sizes, batched := r.Metrics(), r.batchSize.Snapshot(), r.batched.Load()
		for i, o := range r.ServeEncodedBatch(context.Background(), items) {
			if o.Err != nil || o.RawResponse.ID != frameIDs[i] {
				t.Fatalf("outcome %d: id %q err %v, want %s", i, o.RawResponse.ID, o.Err, frameIDs[i])
			}
		}
		after, snap := r.Metrics(), r.batchSize.Snapshot()
		if got := r.batched.Load() - batched; got != int64(len(items)) {
			t.Errorf("%d entries answered inside a frame, want %d", got, len(items))
		}
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

// A killed owner loses the frame of one its request is sent in, as a
// transport failure: the request fails over and completes on the
// sibling, the owner is ejected at FailThreshold 1, and the entry
// executes exactly once cluster-wide.
func TestKilledOwnerLostFrameFailsOverOnce(t *testing.T) {
	r, faults, engines, _ := newTestCluster(t, 2, Config{FailThreshold: 1, ProbeAfter: time.Hour}, false)
	owner := ownerOf(r, "X1", nil)
	faults[owner].Kill()
	rr, err := r.ServeEncoded(admit.WithClass(context.Background(), admit.Batch), "X1", nil)
	if err != nil {
		t.Fatalf("ServeEncoded with a killed owner: %v", err)
	}
	if _, err := rr.Result(); err != nil {
		t.Fatalf("bad payload after failover: %v", err)
	}
	if h := r.Metrics().Health[owner]; !h.Ejected || h.Failures != 1 {
		t.Fatalf("owner %+v, want one failure and ejected at FailThreshold 1", h)
	}
	if got := totalExecutions(engines); got != 1 {
		t.Fatalf("cluster executed %d times, want exactly 1", got)
	}
}

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
