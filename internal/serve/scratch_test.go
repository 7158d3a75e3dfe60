package serve

// A miss encodes into pooled scratch and hands out the slab's bytes as its
// Raw (memoize), and a complete assignment is used as the caller passed it
// (resolveKey). These tests hold what that must not break: a miss's Raw
// outlives the scratch it was encoded in, a large result's scratch is not
// pooled, no interned identity shares a caller's map, and a cold map-only
// point allocates exactly what it keeps. CI runs the Scratch and Alias
// tests under -race at -count=20.

import (
	"bytes"
	"context"
	"maps"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/httpapi"
)

// e7Points is n complete E7 assignments, distinct across calls with
// different shifts.
func e7Points(n int, shift float64) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{ID: "E7", Params: core.Params{"f": 0.5 + 0.0024*float64(i) + shift, "bces": float64(16 + 61*i%4000)}}
	}
	return items
}

// A cold 64-point batch on four workers, one point repeated and booked
// deduped, into a one-shard cache too small to hold it: every Raw kept
// from it still holds its point's RunWith+Encode bytes after a second
// fresh batch has reused the scratch and evicted the first's entries, and
// the follower's Raw is its leader's.
func TestScratchMissRawSurvivesNextBatch(t *testing.T) {
	first := append(e7Points(63, 0), BatchItem{})
	first[63] = BatchItem{ID: "E7", Params: maps.Clone(first[0].Params)}
	lead := first[0].Params["f"]
	e := NewEngine(Config{Shards: 1, Workers: 4, CacheBytes: 1,
		RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
			for p["f"] == lead && flightFollowers() < 1 { // hold the leader until the repeat joins it
				runtime.Gosched()
			}
			return runRegistry(ctx, id, p)
		}})
	defer e.Close()
	var kept []BatchOutcome
	within(t, "the first batch", func() { kept = e.ServeEncodedBatch(context.Background(), first) })
	within(t, "the second batch", func() { e.ServeEncodedBatch(context.Background(), e7Points(64, 1e-4)) })
	exp, _ := core.ByID("E7")
	for i, o := range kept {
		res, _, err := exp.RunWith(context.Background(), first[i].Params)
		if o.Err != nil || err != nil {
			t.Fatalf("item %d: served %v, RunWith %v", i, o.Err, err)
		}
		if !bytes.Equal(o.RawResponse.Raw, res.Encode()) {
			t.Fatalf("item %d (%v): Raw no longer holds its point's bytes", i, first[i].Params)
		}
	}
	if f := kept[63].RawResponse; !f.Shared || !bytes.Equal(f.Raw, kept[0].RawResponse.Raw) {
		t.Fatalf("the repeat: shared=%v, Raw equal to its leader's: %v", f.Shared, bytes.Equal(f.Raw, kept[0].RawResponse.Raw))
	}
	if ev := e.Metrics().Cache.Evicted; ev == 0 {
		t.Fatal("nothing was evicted: the kept Raws were never left pointing into a dropped segment")
	}
	checkConservation(t, e)
}

// A result whose payload is past maxScratch is served, decodes, and its
// scratch goes to the GC: the pool this goroutine draws from next holds no
// buffer of its size.
func TestScratchOverMaxIsNotPooled(t *testing.T) {
	big := core.Result{Findings: []string{strings.Repeat("x", maxScratch+1)}}
	e := NewEngine(Config{Workers: 1, RunnerWith: byID(func(string) (core.Result, error) { return big, nil })})
	defer e.Close()
	for _, hit := range []bool{false, true} {
		rr, err := e.ServeEncoded(context.Background(), "BIG", nil)
		if err != nil || rr.CacheHit != hit {
			t.Fatalf("hit=%v err=%v, want hit=%v", rr.CacheHit, err, hit)
		}
		if res, err := rr.Result(); err != nil || !bytes.Equal(rr.Raw, big.Encode()) || res.Findings[0] != big.Findings[0] {
			t.Fatalf("hit=%v: Raw (%d bytes) does not decode to the result: %v", hit, len(rr.Raw), err)
		}
	}
	var drawn []*[]byte
	defer func() {
		for _, b := range drawn {
			httpapi.PutBuffer(b)
		}
	}()
	for range 8 {
		b := httpapi.GetBuffer()
		drawn = append(drawn, b)
		if cap(*b) > maxScratch {
			t.Fatalf("the pool holds a %d-byte buffer: a scratch past maxScratch was pooled", cap(*b))
		}
	}
}

// An interned row never shares a caller's map: after IdentOf and after a
// map-door ServeEncoded (whose complete assignment resolveKey returns as
// it is), writing the caller's map changes neither the row's Params nor
// its Key, nor the Params a response carries.
func TestAliasIdentityKeepsPrivateParams(t *testing.T) {
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	for _, door := range []string{"IdentOf", "ServeEncoded"} {
		p := core.Params{"f": 0.61 + 1e-6*float64(aliasRuns.Add(1)), "bces": 123} // a pair no run has interned
		want := maps.Clone(p)
		wantKey, _, _ := resolveKey("E7", want)
		var rr RawResponse
		if door == "IdentOf" {
			IdentOf("E7", p)
		} else {
			var err error
			if rr, err = e.ServeEncoded(context.Background(), "E7", p); err != nil {
				t.Fatal(err)
			}
		}
		p["f"], p["bces"] = 0.7, 16
		row := IdentOf("E7", want)
		if row != IdentOf("E7", want) {
			t.Fatalf("%s: the pair has no row", door)
		}
		if !maps.Equal(row.Params(), want) || row.Key() != wantKey {
			t.Fatalf("%s: the row reads %v %q after the caller's map changed, want %v %q",
				door, row.Params(), row.Key(), want, wantKey)
		}
		if door == "ServeEncoded" && !maps.Equal(rr.Params, want) {
			t.Fatalf("ServeEncoded: the response's Params read %v after the caller's map changed", rr.Params)
		}
	}
}

var aliasRuns atomic.Int64

// One fresh map-only E7 point through ServeEncodedBatchInto on a warm
// engine, exactly: the key, the flight, admission, the miss pass's
// per-call captures, and E7's result (figure, points, title, findings
// list, first finding, headline).
// Its payload is encoded into pooled scratch and kept only in the slab.
// The count is the measured one and only ratchets down.
func TestColdMapOnlyPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e := NewEngine(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()
	const runs, warm = 100, 64
	// A first batch gives every shard its arena and index; AllocsPerRun
	// then calls f runs+1 times, each on a point of its own.
	points := e7Points(warm+runs+1, 0)
	e.ServeEncodedBatch(ctx, points[:warm])
	k := warm
	out := make([]BatchOutcome, 1)
	serveNext := func() {
		out = e.ServeEncodedBatchInto(ctx, points[k:k+1], out)
		if o := out[0]; o.Err != nil || o.RawResponse.CacheHit {
			t.Fatalf("point %d: hit=%v err=%v", k, o.RawResponse.CacheHit, o.Err)
		}
		k++
	}
	const want = 15
	if got := testing.AllocsPerRun(runs, serveNext); got != want {
		t.Errorf("a cold map-only point allocates %v times, want %v", got, want)
	}
}
