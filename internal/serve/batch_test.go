package serve

// Tests for the engine's multi-get surface: per-class and per-tenant
// conservation through ServeEncodedBatchInto (batched accounting must be
// indistinguishable from single-request accounting), per-entry error
// isolation, and the POST /batch frame round trip over HTTP.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// Conservation through the batched path: frames of mixed classes,
// repeated keys (hits + dedup), and per-entry errors, issued
// concurrently. At quiescence every class's books must balance exactly
// as they do for single requests, and error entries must not be
// counted as requests (they fail validation before admission).
func TestServeEncodedBatchConservation(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: slowRunner(time.Millisecond),
		Tenants: []string{"t0", "t1", "t2"}})
	defer e.Close()

	const goroutines = 16
	const frames = 8
	var wg sync.WaitGroup
	var badEntries atomic.Int64
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				items := make([]BatchItem, 0, 8)
				for i := 0; i < 7; i++ {
					class := admit.Interactive
					if (g+i)%2 == 0 {
						class = admit.Batch
					}
					items = append(items, BatchItem{
						ID:    fmt.Sprintf("K%d", (g+f+i)%5),
						Class: class,
					})
				}
				// One invalid entry per frame: params on an unknown ID
				// fail resolution before the request is counted.
				items = append(items, BatchItem{ID: "NOPE", Params: core.Params{"x": 1}})
				ctx := admit.WithTenant(context.Background(), fmt.Sprintf("t%d", g%3))
				for i, out := range e.ServeEncodedBatchInto(ctx, items, nil) {
					if i == len(items)-1 {
						if out.Err == nil {
							t.Error("invalid entry served without error")
						}
						badEntries.Add(1)
						continue
					}
					if out.Err != nil {
						t.Errorf("entry %d: %v", i, out.Err)
						continue
					}
					if _, err := out.RawResponse.Result(); err != nil {
						t.Errorf("entry %d: bad payload: %v", i, err)
					}
				}
			}
		}()
	}
	wg.Wait()

	m := e.Metrics()
	var total int64
	for _, class := range admit.Classes() {
		cm := m.Classes[class.String()]
		if err := cm.Balance(); err != nil {
			t.Errorf("%s: %v", class, err)
		}
		total += cm.Requests
	}
	if want := int64(goroutines * frames * 7); total != want {
		t.Fatalf("total requests %d, want %d (invalid entries must not be counted; %d rejected)",
			total, want, badEntries.Load())
	}
	// Tenant books saw every valid request too.
	var tenant int64
	for _, tm := range m.Tenants {
		tenant += tm.Requests
	}
	if tenant != total {
		t.Fatalf("tenant books recorded %d requests, want %d", tenant, total)
	}
}

// POST /batch over HTTP: one frame of mixed entries round-trips with
// per-entry outcomes (a bad entry answers inside the frame, not as a
// whole-request error), and a second identical frame is all cache hits.
func TestBatchHandlerRoundTrip(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	entries := []httpapi.BatchEntry{
		{ID: "E7", Class: admit.Interactive},
		{ID: "E7", Class: admit.Batch, Params: []string{"f=0.95", "bces=64"}},
		{ID: "E1", Class: admit.Batch},
		{ID: "E7", Params: []string{"not-an-assignment"}}, // 400 inside the frame
		{ID: "NOPE", Class: admit.Interactive},            // 404 inside the frame
	}
	post := func() []httpapi.BatchResult {
		t.Helper()
		frame := httpapi.AppendBatchRequest(nil, entries)
		resp, err := http.Post(srv.URL+"/v1/batch", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("POST /v1/batch: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/batch: HTTP %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading frame: %v", err)
		}
		results, err := httpapi.DecodeBatchResponse(body)
		if err != nil {
			t.Fatalf("DecodeBatchResponse: %v", err)
		}
		if len(results) != len(entries) {
			t.Fatalf("got %d results, want %d", len(results), len(entries))
		}
		return results
	}

	first := post()
	for i := 0; i < 3; i++ {
		r := first[i]
		if !r.OK {
			t.Fatalf("entry %d: HTTP %d: %s", i, r.Status, r.Msg)
		}
		if r.Key == "" {
			t.Fatalf("entry %d: no cache key", i)
		}
		res, err := core.DecodeResult(r.Payload)
		if err != nil {
			t.Fatalf("entry %d: bad payload: %v", i, err)
		}
		if res.Render() == "" {
			t.Fatalf("entry %d: empty result", i)
		}
	}
	if r := first[3]; r.OK || r.Status != http.StatusBadRequest {
		t.Fatalf("bad-param entry: %+v, want status 400", r)
	}
	if r := first[4]; r.OK || r.Status != http.StatusNotFound {
		t.Fatalf("unknown-ID entry: %+v, want status 404", r)
	}

	second := post()
	for i := 0; i < 3; i++ {
		if !second[i].OK || !second[i].CacheHit {
			t.Fatalf("repeat entry %d not a cache hit: %+v", i, second[i])
		}
	}

	// A frame that is not a frame answers with the JSON envelope, not a
	// panic or a silent 200.
	resp, err := http.Post(srv.URL+"/v1/batch", "application/octet-stream",
		bytes.NewReader([]byte("junk")))
	if err != nil {
		t.Fatalf("POST junk: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk body: HTTP %d, want 400", resp.StatusCode)
	}
}

// A map-only frame books like an interned one. The same 64 items — warm
// and cold points, a key repeated inside the frame, an unknown experiment,
// bad params, both classes — are served once with Ident set (resolved and
// served by the scan) and once as bare maps (resolved on the miss pass),
// each on a fresh engine warmed the same way. Outcomes and books must
// agree item for item. The repeated key's first run is held until its
// repeat has joined the flight, so the repeat is deduped both times; no
// wait is a sleep.
func TestMapOnlyFrameBooksLikeInterned(t *testing.T) {
	var items []BatchItem
	for i := 0; len(items) < 60; i++ {
		class := admit.Interactive
		if i%3 == 0 {
			class = admit.Batch
		}
		items = append(items, BatchItem{ID: "E7", Class: class,
			Params: core.Params{"f": 0.5 + float64(i)*0.005, "bces": 64}})
	}
	items = append(items,
		BatchItem{ID: "NOPE", Params: core.Params{"x": 1}, Class: admit.Batch}, // unknown experiment
		BatchItem{ID: "E7", Params: core.Params{"f": 5}},                       // bad params
		BatchItem{ID: "E1", Class: admit.Batch},                                // defaults
		items[10])                                                              // a repeat of a cold point
	heldF := items[10].Params["f"]
	warm := func(i int) bool { return i < 60 && i%4 == 1 || i == 62 }

	type booked struct{ requests, hits, deduped, executions, sheds int64 }
	type outcome struct {
		key         string
		hit, shared bool
		status      int
		msg         string
	}
	serveFrame := func(intern bool) ([]outcome, map[string]booked) {
		held, release := make(chan struct{}), make(chan struct{})
		e := NewEngine(Config{Shards: 4, Workers: 2, Tenants: []string{"tA"},
			RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
				if id == "E7" && p.Float("f") == heldF {
					close(held)
					select {
					case <-release:
					case <-ctx.Done():
						return core.Result{}, ctx.Err()
					}
				}
				return fakeResult(id), nil
			}})
		defer e.Close()
		ctx := admit.WithTenant(context.Background(), "tA")
		for i, it := range items {
			if warm(i) {
				if _, err := e.ServeEncoded(admit.WithClass(ctx, it.Class), it.ID, it.Params); err != nil {
					t.Fatalf("warming item %d: %v", i, err)
				}
			}
		}
		frame := append([]BatchItem(nil), items...)
		if intern {
			for i := range frame {
				frame[i].Ident = IdentOf(frame[i].ID, frame[i].Params)
			}
		}
		var out []BatchOutcome
		within(t, "the 64-item frame", func() {
			done := make(chan struct{})
			go func() {
				out = e.ServeEncodedBatchInto(ctx, frame, nil)
				close(done)
			}()
			<-held
			for flightFollowers() < 1 { // the repeat has joined the held flight
				runtime.Gosched()
			}
			close(release)
			<-done
		})
		outs := make([]outcome, len(out))
		for i, o := range out {
			if o.Err != nil {
				outs[i].status, _, _ = httpapi.ErrorStatus(o.Err, http.StatusInternalServerError)
				outs[i].msg = o.Err.Error()
				continue
			}
			outs[i] = outcome{key: o.RawResponse.Key, hit: o.RawResponse.CacheHit, shared: o.RawResponse.Shared}
		}
		books := map[string]booked{}
		for name, c := range checkConservation(t, e) {
			books["class "+name] = booked{c.Requests, c.CacheHits, c.Deduped, c.Executions, c.Sheds}
		}
		for name, tm := range e.Metrics().Tenants {
			books["tenant "+name] = booked{requests: tm.Requests, hits: tm.CacheHits, sheds: tm.Sheds}
		}
		return outs, books
	}

	interned, internedBooks := serveFrame(true)
	mapOnly, mapOnlyBooks := serveFrame(false)
	for i := range items {
		if interned[i] != mapOnly[i] {
			t.Errorf("item %d: interned %+v, map-only %+v", i, interned[i], mapOnly[i])
		}
	}
	if fmt.Sprint(internedBooks) != fmt.Sprint(mapOnlyBooks) {
		t.Errorf("books differ:\ninterned %v\nmap-only %v", internedBooks, mapOnlyBooks)
	}
	// The frame is what it claims to be: warm items hit, the repeat is
	// deduped, the two bad items fail as 404 and 400.
	if o := mapOnly[63]; !o.shared || o.hit || mapOnly[10].shared {
		t.Errorf("repeat %+v, first %+v: want the repeat deduped onto the first", o, mapOnly[10])
	}
	if mapOnly[60].status != http.StatusNotFound || mapOnly[61].status != http.StatusBadRequest {
		t.Errorf("unknown experiment %+v, bad params %+v", mapOnly[60], mapOnly[61])
	}
	for i := range items[:60] {
		if mapOnly[i].hit != warm(i) {
			t.Errorf("item %d: hit=%v, warmed=%v", i, mapOnly[i].hit, warm(i))
		}
	}
	if b := mapOnlyBooks["tenant tA"]; b.requests != 62+15+1 {
		t.Errorf("tenant tA books %+v, want the 62 valid items and 16 warm-ups", b)
	}
}
