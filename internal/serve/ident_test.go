package serve

// Tests for the interned request identity: the table's bound and its
// behaviour under concurrent interning, the per-frame (not per-entry)
// allocation count of the frame routine, and HandleBatch's body-read
// verdicts.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// resetIdentTab empties the process-wide table, so a test that fills it
// (or needs room in it) does not depend on what ran before. Not safe
// while anything is interning.
func resetIdentTab() {
	for i := range identSlots {
		identSlots[i].Store(nil)
	}
	identCount.Store(0)
}

func identTabLen() int {
	n := 0
	for i := range identSlots {
		if identSlots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Eight goroutines intern a key space four times the cap — half of them by
// serving frames (Intern, by the entry's bytes), half from parsed maps
// (IdentOf) — so inserts race each other, the cap is hit mid-run and the
// tail of the space is derived per request. Every identity must equal the
// uncached derivation, the table must never exceed its cap, and the
// engine's per-class books must balance.
func TestIdentityTableBoundedUnderConcurrentInterning(t *testing.T) {
	resetIdentTab()
	defer resetIdentTab()
	e := NewEngine(Config{Shards: 8, Workers: 4, Queue: 1 << 16,
		RunnerWith: func(_ context.Context, id string, _ core.Params) (core.Result, error) {
			return fakeResult(id), nil
		}})
	defer e.Close()
	exp, _ := core.ByID("E7")

	const (
		goroutines = 8
		space      = 4 * identCap
		frameLen   = 64
	)
	// Point i of the space: a distinct valid E7 assignment. Goroutines g
	// and g+4 cover the same quarter at the same time, one by frames and
	// one by maps, in the same (canonical) spelling — so they race to
	// insert the same rows.
	value := func(i int) float64 { return 0.5 + float64(i)/float64(4*space) }
	wantKey := func(i int) string {
		resolved, err := exp.ResolveParams(core.Params{"f": value(i), "bces": 16})
		if err != nil {
			t.Errorf("point %d does not resolve: %v", i, err)
		}
		return exp.CacheKey(resolved)
	}
	var wg sync.WaitGroup
	var served [goroutines]int
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := (g % 4) * (space / 4)
			for i := lo; i < lo+space/4; i += frameLen {
				if rows := identTabLen(); rows > identCap {
					t.Errorf("table holds %d rows, cap %d", rows, identCap)
					return
				}
				if g >= 4 {
					for j := i; j < i+frameLen; j++ {
						ident := IdentOf("E7", core.Params{"f": value(j), "bces": 16})
						if ident.err != nil || ident.Key() != wantKey(j) {
							t.Errorf("IdentOf point %d: key %q err %v, want %q", j, ident.Key(), ident.err, wantKey(j))
							return
						}
					}
					continue
				}
				entries := make([]httpapi.BatchEntry, frameLen)
				for j := range entries {
					entries[j] = httpapi.BatchEntry{ID: "E7", Class: admit.Class(j % 2),
						Params: []string{"bces=16", "f=" + core.FormatParamValue(value(i+j))}}
				}
				frame, err := ServeBatchFrame(context.Background(), httpapi.AppendBatchRequest(nil, entries),
					nil, e.ServeEncodedBatchInto, http.StatusInternalServerError)
				if err != nil {
					t.Errorf("frame at %d: %v", i, err)
					return
				}
				results, err := httpapi.DecodeBatchResponse(frame)
				if err != nil || len(results) != frameLen {
					t.Errorf("frame at %d: %d results, err %v", i, len(results), err)
					return
				}
				for j, r := range results {
					if !r.OK || r.Key != wantKey(i+j) {
						t.Errorf("point %d answered %+v, want key %q", i+j, r, wantKey(i+j))
						return
					}
				}
				served[g] += frameLen
			}
		}()
	}
	wg.Wait()

	if n, rows := identCount.Load(), identTabLen(); n != identCap || rows != identCap {
		t.Errorf("table counts %d rows and holds %d, want the cap %d (the space is 4x it)", n, rows, identCap)
	}
	m := e.Metrics()
	var total, want int64
	for _, n := range served {
		want += int64(n)
	}
	for _, class := range admit.Classes() {
		cm := m.Classes[class.String()]
		if err := cm.Balance(); err != nil {
			t.Errorf("%s: %v", class, err)
		}
		total += cm.Requests
	}
	if total != want {
		t.Errorf("engine counted %d requests, frames carried %d", total, want)
	}
}

// Client-sized names take no row: a pair longer than identMaxBytes is named
// correctly every time and never stored.
func TestIdentityTooLongIsNotInterned(t *testing.T) {
	resetIdentTab()
	defer resetIdentTab()
	long := strings.Repeat("x", identMaxBytes+1)
	for i := 0; i < 2; i++ {
		a, err := Intern([]byte(long), []byte{0})
		b := IdentOf(long, nil)
		if err != nil || a.Key() != long || b.Key() != long || a.err != nil || b.err != nil {
			t.Fatalf("long ID named (%q..., %v) and (%q..., %v)", a.Key()[:4], err, b.Key()[:4], b.err)
		}
	}
	if rows := identTabLen(); rows != 0 || identCount.Load() != 0 {
		t.Fatalf("a %d-byte ID took %d rows (count %d)", len(long), rows, identCount.Load())
	}
}

// The frame routine allocates nothing for a warm frame: a warm entry is
// found by its own bytes and served from the slab, the items, results and
// outcomes live in a pooled scratch (the outcomes written by the engine's
// ServeEncodedBatchInto), and the miss pass is a method of its own, so an
// all-hit frame pays nothing for it. A frame of 64 allocates what a frame
// of 16 does: nothing.
func TestServeBatchFrameAllocsPerFrameNotPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	resetIdentTab()
	defer resetIdentTab()
	e := NewEngine(Config{Shards: 4, Workers: 2})
	defer e.Close()
	var grid []httpapi.BatchEntry
	for _, f := range []string{"0.9", "0.95", "0.975", "0.99"} {
		for _, bces := range []string{"64", "256", "1024", "4096"} {
			grid = append(grid, httpapi.BatchEntry{ID: "E7", Class: admit.Batch,
				Params: []string{"f=" + f, "bces=" + bces}})
		}
	}
	grid = append(grid, httpapi.BatchEntry{ID: "E1", Class: admit.Interactive})
	dst := make([]byte, 0, 1<<20)
	allocs := func(n int) float64 {
		entries := make([]httpapi.BatchEntry, n)
		for i := range entries {
			entries[i] = grid[i%len(grid)]
		}
		body := httpapi.AppendBatchRequest(nil, entries)
		serveFn := e.ServeEncodedBatchInto
		serve := func() {
			frame, err := ServeBatchFrame(context.Background(), body, dst[:0], serveFn, http.StatusInternalServerError)
			if err != nil || len(frame) == 0 {
				t.Fatalf("ServeBatchFrame: %v", err)
			}
		}
		serve() // cold: executes and interns
		return testing.AllocsPerRun(100, serve)
	}
	a16, a64 := allocs(16), allocs(64)
	if a16 != 0 || a64 != 0 {
		t.Fatalf("warm frame allocations: %v for 16 entries, %v for 64; want 0 for both", a16, a64)
	}
}

type failingBody struct{ err error }

func (b failingBody) Read([]byte) (int, error) { return 0, b.err }

// HandleBatch tells a body over the cap (413) from a body that could not
// be read (400), the way the sweep endpoint does.
func TestHandleBatchBodyReadErrors(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2})
	defer e.Close()
	for _, tc := range []struct {
		name   string
		body   io.Reader
		status int
		code   string
	}{
		{"over the cap", bytes.NewReader(make([]byte, httpapi.MaxBatchBytes+1)),
			http.StatusRequestEntityTooLarge, httpapi.CodePayloadTooLarge},
		{"errors mid-read", io.MultiReader(strings.NewReader(httpapi.BatchRequestMagic),
			failingBody{errors.New("connection reset")}),
			http.StatusBadRequest, httpapi.CodeBadRequest},
	} {
		rec := httptest.NewRecorder()
		e.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", tc.body))
		if rec.Code != tc.status || !strings.Contains(rec.Body.String(), fmt.Sprintf("%q", tc.code)) {
			t.Errorf("%s: HTTP %d %s, want %d with code %q", tc.name, rec.Code, rec.Body.String(), tc.status, tc.code)
		}
	}
}

// ParseParams trims assignment names, so a frame entry spelled " f=0.9"
// interns a row that resolved the name "f". A map that names " f" renders
// those same bytes, and must still get resolveKey's unknown-parameter
// error, from IdentOf and from the engine's map door alike.
func TestIdentOfUntrimmedNameMissesTrimmedRow(t *testing.T) {
	run := append([]byte{1, byte(len(" f=0.9"))}, " f=0.9"...)
	row, err := Intern([]byte("E7"), run)
	if err != nil || row.err != nil || row.Key() != "E7?f=0.9" {
		t.Fatalf("Intern(E7, %q) = %v, %v; want the resolved row E7?f=0.9", run, row, err)
	}
	p := core.Params{" f": 0.9}
	_, _, want := resolveKey("E7", p)
	if want == nil {
		t.Fatal("resolveKey accepted an untrimmed name")
	}
	if got := IdentOf("E7", p); got == row || got.err == nil || got.err.Error() != want.Error() {
		t.Fatalf("IdentOf(E7, %v) = row %p err %v; want resolveKey's %v", p, got, got.err, want)
	}
	e := NewEngine(Config{Workers: 1})
	defer e.Close()
	if _, err := e.ServeEncoded(context.Background(), "E7", p); !errors.Is(err, ErrBadParams) || err.Error() != want.Error() {
		t.Fatalf("ServeEncoded(E7, %v) err %v; want %v", p, err, want)
	}
}
