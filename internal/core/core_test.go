package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/multicore"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19",
		"E20", "E21", "E22", "E23", "T1", "T2"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s, want %s", i, reg[i].ID, id)
		}
	}
}

func TestRegistryMetadata(t *testing.T) {
	for _, e := range Registry() {
		if e.Title == "" || e.PaperClaim == "" || e.Run == nil {
			t.Errorf("%s: incomplete metadata", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E3"); !ok {
		t.Fatal("E3 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("bogus ID found")
	}
}

// defaultResults runs every experiment once at its defaults. The tests
// that only read a default Result share this one pass.
var defaultResults = sync.OnceValue(func() map[string]Result {
	out := map[string]Result{}
	for _, e := range Registry() {
		out[e.ID] = e.Run(context.Background())
	}
	return out
})

// Every experiment runs, produces output, and produces findings.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := defaultResults()[e.ID]
			if res.Table == nil && res.Figure == nil {
				t.Fatal("no table or figure")
			}
			if len(res.Findings) == 0 {
				t.Fatal("no findings")
			}
			out := res.Render()
			if len(out) < 50 {
				t.Fatalf("render too short: %q", out)
			}
		})
	}
}

// Experiments are deterministic: a fresh run renders what the shared
// pass rendered.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"E2", "E3", "E9", "E12", "E15"} {
		e, _ := ByID(id)
		a := defaultResults()[id].Render()
		b := e.Run(context.Background()).Render()
		if a != b {
			t.Fatalf("%s renders differ across runs", id)
		}
	}
}

// Spot-check the headline numbers against the paper's claims.
func TestHeadlineClaims(t *testing.T) {
	out := defaultResults()["E3"].Render()
	if !strings.Contains(out, "63.") {
		t.Errorf("E3 should report ~63%%: %s", out)
	}
	out2 := defaultResults()["E2"].Render()
	if !strings.Contains(out2, "architecture") {
		t.Errorf("E2 missing architecture row")
	}
	out1 := defaultResults()["E1"].Render()
	if !strings.Contains(out1, "64") { // 2^6 transistors at gen 6
		t.Errorf("E1 should show 64x transistors: %s", out1)
	}
}

func TestRunAll(t *testing.T) {
	outs := RunAll(context.Background())
	if len(outs) != len(Registry()) {
		t.Fatalf("RunAll produced %d outputs", len(outs))
	}
	for i, e := range Registry() {
		head := fmt.Sprintf("=== %s: %s\nclaim: %s\n", e.ID, e.Title, e.PaperClaim)
		body := defaultResults()[e.ID].Render()
		if e.ID == "E19" {
			// E19 reports wall-clock throughput, so only its header
			// repeats from run to run.
			body = strings.TrimPrefix(outs[i], head)
		}
		if outs[i] != head+body {
			t.Errorf("RunAll's %s output is not its header plus its default run", e.ID)
		}
	}
}

// A canceled context must surface as an error from RunWith — never as a
// (partial) result that could be memoized — both when canceled before the
// run and when an experiment bails out at an iteration boundary mid-run.
func TestRunWithCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"E5", "E11", "T2"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("%s not registered", id)
		}
		if _, _, err := e.RunWith(ctx, nil); err != context.Canceled {
			t.Errorf("%s: RunWith(canceled) = %v, want context.Canceled", id, err)
		}
	}
	// Mid-run cancellation: the experiment returns a partial result at an
	// iteration boundary, which RunWith must discard in favor of the error.
	e, _ := ByID("E5")
	if res := e.Run(ctx); res.Table != nil || len(res.Findings) > 0 {
		t.Errorf("E5 under a canceled ctx should return an empty partial result, got %+v", res)
	}
}

func TestIDOrdering(t *testing.T) {
	if !idLess("E2", "E10") {
		t.Fatal("E2 should sort before E10")
	}
	if !idLess("E18", "T1") {
		t.Fatal("E18 should sort before T1")
	}
}

// e7FindingCases are the values where a hand-rounded %.0f or %.1f goes
// wrong first: exact binary ties (k+0.25 and k+0.75 round to even, k+0.5
// at %.0f too), carries into a new leading digit, neighbours of integers
// and both ends of the fast path's range [1, 1e15).
var e7FindingCases = []struct{ r, s float64 }{
	{16, 2.25}, {64, 2.75}, {2.5, 3.5}, {3.5, 0.25}, {0.5, 1.5},
	{1, 9.95}, {1, 9.96}, {1, 99.95}, {1, 999.96}, {9.5, 9.99999},
	{99.5, 0.95}, {1, 1}, {1e15, 1e15}, {math.Nextafter(1e15, 0), math.Nextafter(1e15, 0)},
	{math.Nextafter(1, 0), math.Nextafter(1, 0)}, {math.Nextafter(1, 2), math.Nextafter(1, 2)},
	{math.Nextafter(8, 9), math.Nextafter(8, 7)}, {4503599627370495.5, 123456789012.35},
	{999999999999999.5, 99999999999999.95}, {256, 79.45}, {0, -0.0}, {-3, -9.95},
}

// E7's first finding is fmt's %.0f/%.1f text at every case above; the
// fuzz target FuzzE7OptimumFinding searches the rest of the float space.
func TestE7OptimumFindingMatchesFmt(t *testing.T) {
	for _, c := range e7FindingCases {
		if got, want := e7OptimumFinding(c.r, c.s), fmt.Sprintf(e7OptimumFormat, c.r, c.s); got != want {
			t.Errorf("e7OptimumFinding(%v, %v)\n got  %q\n want %q", c.r, c.s, got, want)
		}
	}
}

// TestE7MatchesLinearScan pins E7's encoded result to the bytes it has
// when the symmetric optimum is found by scanning every integer r in
// [1, n] — what multicore.OptimalSymmetricR did before it evaluated only
// the integers around the closed-form optimum.
func TestE7MatchesLinearScan(t *testing.T) {
	exp, _ := ByID("E7")
	for _, p := range []Params{nil, {"f": 0.9, "bces": 16}, {"f": 0.95, "bces": 256}, {"f": 0.99, "bces": 1024}} {
		res, resolved, err := exp.RunWith(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		f, n := resolved.Float("f"), float64(resolved.Int("bces"))
		var bestR, bestS float64
		for r := 1.0; r <= n; r++ {
			if s := multicore.SymmetricSpeedup(f, n, r); s > bestS {
				bestS, bestR = s, r
			}
		}
		want := res
		want.Findings = append([]string(nil), res.Findings...)
		want.Findings[0] = finding("symmetric optimum at r=%.0f with %.1fx (interior optimum: neither sea-of-small-cores nor one big core)", bestR, bestS)
		want.SetHeadline(bestS)
		if !bytes.Equal(res.Encode(), want.Encode()) {
			t.Errorf("E7 %v: headline %v, %q; the scan gives %v, %q",
				p, *res.Headline, res.Findings[0], bestS, want.Findings[0])
		}
	}
}
