// Package core is the arch21 toolkit facade: it binds every quantitative
// claim and agenda table of "21st Century Computer Architecture" (Hill et
// al., CCC white paper 2012 / PPoPP 2014 keynote) to a runnable,
// deterministic experiment built on the toolkit's substrates.
//
// Each experiment produces a report (table or figure) plus a list of
// findings — measured values side by side with the paper's claim — which
// cmd/arch21, the examples, and the benchmark harness all consume.
//
// Experiments may declare a typed parameter schema (ParamSpec) exposing
// the model's knobs — Dennard generations, fork-join fanout, Hill-Marty
// chip budgets. RunWith resolves an assignment against the schema and
// runs the experiment at that design point (RunWith(ctx, nil) is the
// all-defaults point), and results are deterministic per (ID,
// assignment), which is what lets the serve cache memoize each grid point
// of a sweep.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/report"
)

// Result is an experiment's output.
type Result struct {
	// Table holds tabular output (may be nil when Figure is set).
	Table *report.Table
	// Figure holds series output (may be nil when Table is set).
	Figure *report.Figure
	// Findings lists measured headline numbers next to the paper's
	// claims, one per line.
	Findings []string
	// Headline, when set, is the experiment's single scalar summary
	// metric — what a parameter sweep tabulates and plots per grid
	// point. Parameterized experiments set it via SetHeadline; without
	// it, sweep aggregation falls back to the first number in the first
	// finding (which can be a parameter echo rather than a measurement).
	Headline *float64
}

// SetHeadline records the result's scalar summary metric.
func (r *Result) SetHeadline(v float64) { r.Headline = &v }

// Render returns the full human-readable result.
func (r Result) Render() string {
	var b strings.Builder
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	if r.Figure != nil {
		b.WriteString(r.Figure.String())
	}
	if len(r.Findings) > 0 {
		b.WriteString("findings:\n")
		for _, f := range r.Findings {
			b.WriteString("  - " + f + "\n")
		}
	}
	return b.String()
}

// Experiment is one registered paper-claim reproduction.
type Experiment struct {
	// ID is the experiment key (E1..E23, T1, T2).
	ID string
	// Title summarizes the experiment.
	Title string
	// PaperClaim quotes or paraphrases the claim being reproduced.
	PaperClaim string
	// Params declares the experiment's knobs, in presentation/cache-key
	// order. Empty for fixed-point experiments.
	Params []ParamSpec
	// Run executes the experiment deterministically under a resolved
	// parameter assignment: every declared knob present and validated,
	// nil for an experiment that declares none. Use RunWith, which
	// resolves and validates, rather than calling Run directly. The
	// assignment may be the caller's own map (RunWith passes a resolved
	// one through), so Run reads it and never writes it.
	//
	// The context is the caller's cancellation signal: most experiments
	// finish in microseconds and may ignore it, but long-loop experiments
	// (E5's kernel scan, E11's sample scoring) check ctx.Err() at
	// iteration boundaries and return early — RunWith then discards the
	// partial result and surfaces ctx.Err(), which is how a disconnected
	// client's abandoned work actually stops mid-run instead of grinding
	// to completion unobserved.
	Run func(ctx context.Context, p Params) Result
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	validateSpecs(e.ID, e.Params)
	registry[e.ID] = e
}

// Registry returns all experiments sorted by ID (E1..E23 numerically, then
// T1, T2).
func Registry() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

func idLess(a, b string) bool {
	pa, na := splitID(a)
	pb, nb := splitID(b)
	if pa != pb {
		return pa < pb
	}
	return na < nb
}

func splitID(id string) (string, int) {
	for i := 0; i < len(id); i++ {
		if id[i] >= '0' && id[i] <= '9' {
			n := 0
			fmt.Sscanf(id[i:], "%d", &n)
			return id[:i], n
		}
	}
	return id, 0
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// RunAll executes every experiment and returns rendered output keyed by ID
// in registry order. It stops early when ctx is canceled.
func RunAll(ctx context.Context) []string {
	var out []string
	for _, e := range Registry() {
		res, _, err := e.RunWith(ctx, nil)
		if err != nil { // ctx is done: a default run fails for no other reason
			break
		}
		out = append(out, fmt.Sprintf("=== %s: %s\nclaim: %s\n%s",
			e.ID, e.Title, e.PaperClaim, res.Render()))
	}
	return out
}

func finding(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}
