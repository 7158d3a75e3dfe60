package core

import (
	"context"
	"maps"
	"strings"
	"testing"
)

func specExperiment() Experiment {
	return Experiment{
		ID:    "EX",
		Title: "spec fixture",
		Params: []ParamSpec{
			{Name: "gens", Kind: IntParam, Default: 6, Min: 1, Max: 12, Doc: "generations"},
			{Name: "f", Kind: FloatParam, Default: 0.975, Min: 0.5, Max: 0.9999, Doc: "parallel fraction"},
		},
		Run: func(_ context.Context, p Params) Result {
			return Result{Findings: []string{
				finding("gens=%d f=%s", p.Int("gens"), FormatParamValue(p.Float("f"))),
			}}
		},
	}
}

func TestResolveParamsDefaultsAndOverrides(t *testing.T) {
	e := specExperiment()
	r, err := e.ResolveParams(nil)
	if err != nil {
		t.Fatalf("resolve nil: %v", err)
	}
	if r["gens"] != 6 || r["f"] != 0.975 {
		t.Fatalf("defaults wrong: %v", r)
	}
	r, err = e.ResolveParams(Params{"gens": 9})
	if err != nil {
		t.Fatalf("resolve override: %v", err)
	}
	if r["gens"] != 9 || r["f"] != 0.975 {
		t.Fatalf("override wrong: %v", r)
	}
}

// RunWith(ctx, nil) must hand Run a fresh defaults map each call: a Run
// that mutated its assignment must not corrupt later default-parameter
// runs (which the serve cache would then memoize).
func TestDefaultRunBuildsFreshDefaultsPerCall(t *testing.T) {
	e := Experiment{
		ID:     "EX",
		Params: []ParamSpec{{Name: "k", Kind: FloatParam, Default: 2, Min: 0, Max: 1000}},
		Run: func(_ context.Context, p Params) Result {
			v := p.Float("k")
			p["k"] = v + 100
			return Result{Findings: []string{FormatParamValue(v)}}
		},
	}
	for i := 0; i < 3; i++ {
		res, _, err := e.RunWith(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Findings[0]; got != "2" {
			t.Fatalf("run %d saw k=%s, want the default 2 (shared defaults map leaked a mutation)", i, got)
		}
	}
}

func TestResolveParamsRejects(t *testing.T) {
	e := specExperiment()
	cases := map[string]Params{
		"unknown name": {"bogus": 1},
		"above max":    {"gens": 13},
		"below min":    {"f": 0.1},
		"non-integral": {"gens": 2.5},
		"nan":          {"f": nan()},
	}
	for name, p := range cases {
		if _, err := e.ResolveParams(p); err == nil {
			t.Errorf("%s: want error, got none", name)
		}
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// Cache keys: bare ID at defaults (explicit or implicit), schema-ordered
// non-default assignments otherwise.
func TestCacheKey(t *testing.T) {
	e := specExperiment()
	all, _ := e.ResolveParams(nil)
	if got := e.CacheKey(all); got != "EX" {
		t.Fatalf("default key = %q, want EX", got)
	}
	explicit, _ := e.ResolveParams(Params{"gens": 6, "f": 0.975})
	if got := e.CacheKey(explicit); got != "EX" {
		t.Fatalf("explicit-default key = %q, want EX", got)
	}
	r, _ := e.ResolveParams(Params{"f": 0.9, "gens": 8})
	if got := e.CacheKey(r); got != "EX?gens=8&f=0.9" {
		t.Fatalf("key = %q", got)
	}
	one, _ := e.ResolveParams(Params{"f": 0.9})
	if got := e.CacheKey(one); got != "EX?f=0.9" {
		t.Fatalf("key = %q", got)
	}
}

func TestRunWithZeroParamExperiment(t *testing.T) {
	e, _ := ByID("T2")
	if len(e.Params) != 0 {
		t.Fatalf("T2 should declare no parameters")
	}
	if _, _, err := e.RunWith(context.Background(), Params{"anything": 1}); err == nil {
		t.Fatal("params on a zero-param experiment should error")
	}
	res, resolved, err := e.RunWith(context.Background(), nil)
	if err != nil {
		t.Fatalf("RunWith(nil): %v", err)
	}
	if resolved != nil {
		t.Fatalf("resolved should be nil, got %v", resolved)
	}
	if res.Render() != e.Run(context.Background(), nil).Render() {
		t.Fatal("RunWith(nil) differs from Run(nil)")
	}
}

// Every parameterized experiment must render identically via RunWith(nil)
// and via RunWith at explicit defaults — the bare ID is the default grid
// point.
func TestRunWithDefaultsMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every parameterized experiment twice")
	}
	for _, e := range Registry() {
		if len(e.Params) == 0 {
			continue
		}
		e := e
		t.Run(e.ID, func(t *testing.T) {
			defaults, err := e.ResolveParams(nil)
			if err != nil {
				t.Fatal(err)
			}
			res, _, err := e.RunWith(context.Background(), defaults)
			if err != nil {
				t.Fatalf("RunWith(defaults): %v", err)
			}
			if res.Render() != defaultResults()[e.ID].Render() {
				t.Fatal("RunWith(defaults) differs from RunWith(nil)")
			}
		})
	}
}

// RunWith hands an assignment that is already resolved to Run as it is,
// and the serve engine's is an interned map shared by every request for
// that pair: no experiment may write to its assignment. Each one runs at
// its cheapest corner (every knob at its minimum) and must leave the map
// as it was.
func TestRunWithLeavesAResolvedAssignmentUnwritten(t *testing.T) {
	for _, e := range Registry() {
		if len(e.Params) == 0 {
			continue
		}
		p := Params{}
		for _, s := range e.Params {
			p[s.Name] = s.Min
		}
		want := maps.Clone(p)
		if _, resolved, err := e.RunWith(context.Background(), p); err != nil {
			t.Errorf("%s: RunWith(%v): %v", e.ID, want, err)
		} else if !maps.Equal(p, want) || !maps.Equal(resolved, want) {
			t.Errorf("%s: RunWith(%v) left the assignment %v and resolved %v", e.ID, want, p, resolved)
		}
	}
}

// At least the six representative experiments the sweep engine targets
// must expose knobs.
func TestParameterizedCoverage(t *testing.T) {
	var n int
	for _, e := range Registry() {
		if len(e.Params) > 0 {
			n++
		}
	}
	if n < 6 {
		t.Fatalf("only %d experiments declare parameters, want >= 6", n)
	}
}

func TestSpecAndSchemaStrings(t *testing.T) {
	e := specExperiment()
	if got := e.Params[0].String(); got != "gens:int[1..12]=6" {
		t.Fatalf("spec string = %q", got)
	}
	if got := e.SchemaString(); !strings.Contains(got, "f:float[0.5..0.9999]=0.975") {
		t.Fatalf("schema string = %q", got)
	}
	if got := (Experiment{ID: "Z"}).SchemaString(); got != "(no parameters)" {
		t.Fatalf("empty schema = %q", got)
	}
}

func TestParseParams(t *testing.T) {
	p, err := ParseParams([]string{"gens=8", "f=0.9"})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if p["gens"] != 8 || p["f"] != 0.9 {
		t.Fatalf("parsed %v", p)
	}
	for _, bad := range [][]string{
		{"gens"}, {"=3"}, {"gens=abc"}, {"gens=1", "gens=2"},
	} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%v): want error", bad)
		}
	}
	if p, err := ParseParams(nil); err != nil || p != nil {
		t.Fatalf("ParseParams(nil) = %v, %v", p, err)
	}
}

func TestParamsAssignmentsRoundTrip(t *testing.T) {
	p := Params{"bces": 256, "f": 0.975}
	got := p.Assignments()
	want := []string{"bces=256", "f=0.975"}
	if len(got) != len(want) {
		t.Fatalf("Assignments = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Assignments = %v, want %v", got, want)
		}
	}
	back, err := ParseParams(got)
	if err != nil {
		t.Fatalf("ParseParams(Assignments): %v", err)
	}
	if len(back) != len(p) || back["f"] != p["f"] || back["bces"] != p["bces"] {
		t.Fatalf("round trip mismatch: %v vs %v", back, p)
	}
	if Params(nil).Assignments() != nil {
		t.Fatal("nil params should render nil")
	}
	if (Params{}).Assignments() != nil {
		t.Fatal("empty params should render nil")
	}
}
