package router

// Tests of the pooled reply bodies on the batch plane: a warm frame over
// stream replicas allocates per exchange, not per entry; a replica's own
// key passes through; and the ownership rule — a body goes back to its
// pool only from the frame routine, after the response frame copied every
// payload that aliases it — holds under cancellation, timeouts, chain-walk
// fallbacks and sweeps sharing the same replicas.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
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
// pooled frame of one, its reply channel is pooled, and the replica
// answers a frame of one that hits on its reader. The bound is the
// measured count and only ratchets down.
func TestRouterServeEncodedStreamHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const routedStreamHitAllocs = 11
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
