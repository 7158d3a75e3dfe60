package load

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// stubTarget is a deterministic in-memory server for runner tests,
// driven through the in-process target (target).
type stubTarget struct {
	mu    sync.Mutex
	calls map[string]int
	// fail selects requests that return an error; hit selects those
	// reported as cache hits; delay adds synthetic service time.
	fail  func(Variant) bool
	hit   func(Variant) bool
	delay time.Duration
	reset atomic.Int64
}

func newStubTarget() *stubTarget {
	return &stubTarget{calls: map[string]int{}}
}

func (s *stubTarget) ServeEncoded(_ context.Context, id string, p core.Params) (serve.RawResponse, error) {
	v := Variant{ID: id, Params: p}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	s.calls[v.String()]++
	s.mu.Unlock()
	if s.fail != nil && s.fail(v) {
		return serve.RawResponse{}, errors.New("stub failure")
	}
	out := serve.RawResponse{}
	if s.hit != nil {
		out.CacheHit = s.hit(v)
	}
	return out, nil
}

func (s *stubTarget) Events() *obs.Events { return nil }
func (s *stubTarget) ResetCache()         { s.reset.Add(1) }

// target is the stub behind the in-process target, its reset counted.
func (s *stubTarget) target() *ServerTarget { return NewServerTarget(s, "stub", s.ResetCache) }
func (s *stubTarget) count(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[k]
}

// Every catalog scenario must reference only registered experiments with
// schema-valid parameter assignments — the load catalog cannot drift from
// the core registry.
func TestScenarioCatalogResolves(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 11 {
		t.Fatalf("catalog has %d scenarios, want 11", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Doc == "" {
			t.Errorf("%s: no doc line", sc.Name)
		}
		if len(sc.Variants) == 0 && len(sc.Groups) == 0 {
			t.Fatalf("%s: no variants", sc.Name)
		}
		variants := sc.Variants
		for _, g := range sc.Groups {
			if len(g.Variants) == 0 {
				t.Fatalf("%s: group %+v has no variants", sc.Name, g)
			}
			variants = append(append([]Variant{}, variants...), g.Variants...)
		}
		if sc.Schedule != nil {
			if err := sc.Schedule.Validate(); err != nil {
				t.Fatalf("%s: invalid rate schedule: %v", sc.Name, err)
			}
		}
		for _, v := range variants {
			e, ok := core.ByID(v.ID)
			if !ok {
				t.Fatalf("%s: variant %s references unregistered experiment", sc.Name, v)
			}
			if _, err := e.ResolveParams(v.Params); err != nil {
				t.Fatalf("%s: variant %s does not resolve: %v", sc.Name, v, err)
			}
		}
	}
	for _, name := range []string{"warm-hammer", "cold-storm", "mixed-zipf", "herd", "cluster-scatter", "param-churn", "colocation", "diurnal", "flash-crowd", "multi-tenant"} {
		if _, ok := ScenarioByName(name); !ok {
			t.Fatalf("ScenarioByName(%q) missing", name)
		}
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Fatal("ScenarioByName should miss unknown names")
	}
}

func TestVariantString(t *testing.T) {
	v := Variant{ID: "E7", Params: core.Params{"f": 0.9, "bces": 64}}
	if got, want := v.String(), "E7?bces=64&f=0.9"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := (Variant{ID: "E7"}).String(); got != "E7" {
		t.Fatalf("bare String = %q, want E7", got)
	}
}

func TestClosedLoopRoundRobinCoversAllVariants(t *testing.T) {
	stub := newStubTarget()
	sc := Scenario{
		Name: "rr", Mode: ClosedLoop, Skew: 0, Clients: 2,
		Variants: []Variant{{ID: "a"}, {ID: "b"}, {ID: "c"}},
	}
	rep, err := Run(stub.target(), sc, Options{Duration: 80 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Metrics.Requests == 0 || rep.Metrics.Errors != 0 {
		t.Fatalf("unexpected metrics: %+v", rep.Metrics)
	}
	a, b, c := stub.count("a"), stub.count("b"), stub.count("c")
	if a == 0 || b == 0 || c == 0 {
		t.Fatalf("round-robin skipped a variant: a=%d b=%d c=%d", a, b, c)
	}
	// Round-robin keeps counts within one cycle of each other per client.
	for _, pair := range [][2]int{{a, b}, {b, c}, {a, c}} {
		if diff := pair[0] - pair[1]; diff < -4 || diff > 4 {
			t.Fatalf("round-robin imbalance: a=%d b=%d c=%d", a, b, c)
		}
	}
	if rep.Config.Mode != "closed" || rep.Config.Target != "stub" {
		t.Fatalf("config not recorded: %+v", rep.Config)
	}
}

func TestClosedLoopZipfSkewsTraffic(t *testing.T) {
	stub := newStubTarget()
	sc := Scenario{
		Name: "zipf", Mode: ClosedLoop, Skew: 1.2, Clients: 4, Seed: 9,
		Variants: []Variant{{ID: "hot"}, {ID: "mid"}, {ID: "cold1"}, {ID: "cold2"}, {ID: "cold3"}, {ID: "cold4"}},
	}
	if _, err := Run(stub.target(), sc, Options{Duration: 100 * time.Millisecond}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if hot, tail := stub.count("hot"), stub.count("cold4"); hot <= tail {
		t.Fatalf("Zipf skew missing: hot=%d cold4=%d", hot, tail)
	}
}

func TestOpenLoopReplaysTrace(t *testing.T) {
	stub := newStubTarget()
	sc := Scenario{
		Name: "open", Mode: OpenLoop, Skew: 0.9, Seed: 2,
		Variants: []Variant{{ID: "a"}, {ID: "b"}},
	}
	rep, err := Run(stub.target(), sc, Options{Duration: 150 * time.Millisecond, Rate: 1000})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := int64(150)
	if got := rep.Metrics.Requests; got != want {
		t.Fatalf("open loop issued %d requests, want %d (rate*duration)", got, want)
	}
	if rep.Metrics.ThroughputRPS <= 0 {
		t.Fatalf("throughput not measured: %+v", rep.Metrics)
	}
	if rep.Config.Mode != "open" {
		t.Fatalf("mode not recorded: %+v", rep.Config)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("open-loop report invalid: %v", err)
	}
}

func TestErrorsCountedNotTimed(t *testing.T) {
	stub := newStubTarget()
	stub.fail = func(v Variant) bool { return v.ID == "bad" }
	sc := Scenario{
		Name: "err", Mode: ClosedLoop, Skew: 0, Clients: 1,
		Variants: []Variant{{ID: "good"}, {ID: "bad"}},
	}
	rep, err := Run(stub.target(), sc, Options{Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Metrics.Errors == 0 {
		t.Fatal("errors not counted")
	}
	if rep.Metrics.ErrorRate < 0.4 || rep.Metrics.ErrorRate > 0.6 {
		t.Fatalf("error rate %v, want ~0.5", rep.Metrics.ErrorRate)
	}
	// Only successes are timed: requests != latency count.
	if rep.Metrics.Requests-rep.Metrics.Errors <= 0 {
		t.Fatalf("no successes measured: %+v", rep.Metrics)
	}
}

func TestWarmupFailureSurfaces(t *testing.T) {
	stub := newStubTarget()
	stub.fail = func(Variant) bool { return true }
	sc := Scenario{
		Name: "warmfail", Mode: ClosedLoop, Warm: true,
		Variants: []Variant{{ID: "x"}},
	}
	if _, err := Run(stub.target(), sc, Options{Duration: 20 * time.Millisecond}); err == nil {
		t.Fatal("warmup failure did not surface")
	}
}

func TestResetInvokedForResetScenarios(t *testing.T) {
	stub := newStubTarget()
	sc := Scenario{
		Name: "cold", Mode: ClosedLoop, Reset: true,
		Variants: []Variant{{ID: "x"}},
	}
	if _, err := Run(stub.target(), sc, Options{Duration: 10 * time.Millisecond}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stub.reset.Load() != 1 {
		t.Fatalf("ResetCache called %d times, want 1", stub.reset.Load())
	}
}

// A target built without a reset hook cannot reset: the run goes ahead
// as-is and the report records reset: false, as for an HTTP target.
func TestResetWithoutHookRecordedFalse(t *testing.T) {
	stub := newStubTarget()
	sc := Scenario{
		Name: "cold", Mode: ClosedLoop, Reset: true,
		Variants: []Variant{{ID: "x"}},
	}
	rep, err := Run(NewServerTarget(stub, "stub", nil), sc, Options{Duration: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Config.Reset || stub.reset.Load() != 0 {
		t.Fatalf("reset recorded %v with %d resets, want false and 0", rep.Config.Reset, stub.reset.Load())
	}
}

func TestRunRejectsEmptyScenario(t *testing.T) {
	if _, err := Run(newStubTarget().target(), Scenario{Name: "empty"}, Options{}); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

func TestCacheHitRatioMeasured(t *testing.T) {
	stub := newStubTarget()
	stub.hit = func(Variant) bool { return true }
	sc := Scenario{
		Name: "hits", Mode: ClosedLoop, Clients: 2,
		Variants: []Variant{{ID: "x"}},
	}
	rep, err := Run(stub.target(), sc, Options{Duration: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Metrics.CacheHitRatio != 1 {
		t.Fatalf("hit ratio %v, want 1", rep.Metrics.CacheHitRatio)
	}
}

// Open loop with Skew 0 must keep the round-robin contract: every
// variant covered, counts within one cycle of each other.
func TestOpenLoopSkewZeroRoundRobins(t *testing.T) {
	stub := newStubTarget()
	sc := Scenario{
		Name: "open-rr", Mode: OpenLoop, Skew: 0, Seed: 8,
		Variants: []Variant{{ID: "a"}, {ID: "b"}, {ID: "c"}},
	}
	rep, err := Run(stub.target(), sc, Options{Duration: 100 * time.Millisecond, Rate: 600})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a, b, c := stub.count("a"), stub.count("b"), stub.count("c")
	if a == 0 || b == 0 || c == 0 {
		t.Fatalf("open-loop round-robin skipped a variant: a=%d b=%d c=%d", a, b, c)
	}
	for _, pair := range [][2]int{{a, b}, {b, c}, {a, c}} {
		if diff := pair[0] - pair[1]; diff < -1 || diff > 1 {
			t.Fatalf("open-loop round-robin imbalance: a=%d b=%d c=%d", a, b, c)
		}
	}
	if rep.Metrics.Requests != int64(a+b+c) {
		t.Fatalf("requests %d != calls %d", rep.Metrics.Requests, a+b+c)
	}
}

func TestReportWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	r := sampleReport("warm-hammer", 1000, 0.0005)
	if err := WriteFile(path, r); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("the file is not one report object: %v", err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	if err := WriteFile(filepath.Join(dir, "missing", "report.json"), r); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

func TestReportValidate(t *testing.T) {
	good := sampleReport("warm-hammer", 1000, 0.0005)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"wrong schema", func(r *Report) { r.Schema = 99 }},
		{"no scenario", func(r *Report) { r.Scenario = "" }},
		{"no requests", func(r *Report) { r.Metrics.Requests = 0 }},
		{"zero throughput", func(r *Report) { r.Metrics.ThroughputRPS = 0 }},
		{"zero p99", func(r *Report) { r.Metrics.Latency.P99 = 0 }},
	}
	for _, tc := range cases {
		r := good
		tc.mutate(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: invalid report accepted", tc.name)
		}
	}
}

// sampleReport builds a minimal valid report for serialization and
// validation tests.
func sampleReport(scenario string, rps, p99 float64) Report {
	return Report{
		Schema:    SchemaVersion,
		Scenario:  scenario,
		GoVersion: "go-test",
		Config:    Config{Target: "stub", Mode: "closed", DurationSeconds: 1, Clients: 4, Seed: 1, Variants: 3, Cores: 4},
		Metrics: Metrics{ClassMetrics: ClassMetrics{
			Requests: 1000, DurationSeconds: 1, ThroughputRPS: rps,
			CacheHitRatio: 0.9,
			Latency:       Latency{Mean: p99 / 2, P50: p99 / 3, P95: p99 * 0.8, P99: p99, P999: p99 * 1.5, Min: p99 / 10, Max: p99 * 2},
		}},
	}
}

// Open-loop latency is measured from the scheduled arrival: a slow target
// that delays every response must show latencies at least the service
// delay even though the generator never waits.
func TestOpenLoopMeasuresFromScheduledArrival(t *testing.T) {
	stub := newStubTarget()
	stub.delay = 5 * time.Millisecond
	sc := Scenario{
		Name: "lagged", Mode: OpenLoop, Seed: 4,
		Variants: []Variant{{ID: "slow"}},
	}
	rep, err := Run(stub.target(), sc, Options{Duration: 100 * time.Millisecond, Rate: 300})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Metrics.Latency.P50 < 0.004 {
		t.Fatalf("p50 %vs, want >= ~5ms service delay", rep.Metrics.Latency.P50)
	}
}

func TestRunRejectsUnknownMode(t *testing.T) {
	sc := Scenario{Name: "bad", Mode: Mode(7), Variants: []Variant{{ID: "x"}}}
	if _, err := Run(newStubTarget().target(), sc, Options{Duration: time.Millisecond}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if s := Mode(7).String(); s != "mode(7)" {
		t.Fatalf("Mode(7).String() = %q", s)
	}
}

func TestGridVariantsPanicOnBadAxis(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad grid axis did not panic")
		}
	}()
	gridVariants("E7", "f=bogus")
}
