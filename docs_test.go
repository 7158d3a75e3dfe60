package repro

// Docs-drift guards: DESIGN.md §2 must index every registered experiment
// and carry its exact parameter schema, every declared parameter default
// must validate against its own range, and every package must carry a
// package-level godoc comment. CI runs these explicitly as its docs-drift
// step.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/load"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

// design2 returns the §2 section of DESIGN.md.
func design2(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## §2")
	end := strings.Index(doc, "## §3")
	if start < 0 || end < 0 || end <= start {
		t.Fatal("DESIGN.md lost its §2/§3 structure")
	}
	return doc[start:end]
}

// Every registered experiment ID appears as a §2 table row, and every
// declared parameter schema appears verbatim (ParamSpec.String inside
// backticks), so the documented index cannot drift from the registry.
func TestRegistryMatchesDesignDoc(t *testing.T) {
	sec := design2(t)
	for _, e := range core.Registry() {
		if !strings.Contains(sec, "| "+e.ID+" ") {
			t.Errorf("DESIGN.md §2 is missing a row for %s", e.ID)
			continue
		}
		row := ""
		for _, line := range strings.Split(sec, "\n") {
			if strings.HasPrefix(line, "| "+e.ID+" ") {
				row = line
				break
			}
		}
		for _, s := range e.Params {
			if want := "`" + s.String() + "`"; !strings.Contains(row, want) {
				t.Errorf("DESIGN.md §2 row for %s is missing schema %s (row: %s)",
					e.ID, want, row)
			}
		}
		if len(e.Params) == 0 && strings.Count(row, "`") > 0 {
			t.Errorf("DESIGN.md §2 row for %s documents parameters the registry does not declare: %s",
				e.ID, row)
		}
	}
	// No §2 row may name an unregistered experiment.
	for _, line := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(line, "| E") && !strings.HasPrefix(line, "| T") {
			continue
		}
		id := strings.TrimSpace(strings.Split(line, "|")[1])
		if _, ok := core.ByID(id); !ok {
			t.Errorf("DESIGN.md §2 documents %s, which is not registered", id)
		}
	}
}

// Every declared parameter default must pass its own spec's validation —
// a default outside its range would make the experiment unrunnable at the
// zero-param point every cache key anchors on.
func TestParamDefaultsValidate(t *testing.T) {
	for _, e := range core.Registry() {
		seen := map[string]bool{}
		for _, s := range e.Params {
			if err := s.Check(s.Default); err != nil {
				t.Errorf("%s: default for %s fails its own range: %v", e.ID, s.Name, err)
			}
			if seen[s.Name] {
				t.Errorf("%s: duplicate parameter %s", e.ID, s.Name)
			}
			seen[s.Name] = true
		}
		// Resolution of the empty assignment must succeed for every
		// experiment (this is what Serve(id) runs).
		if _, err := e.ResolveParams(nil); err != nil {
			t.Errorf("%s: ResolveParams(nil): %v", e.ID, err)
		}
	}
}

// The multi-replica serving docs cannot drift: DESIGN.md must carry a §7
// covering internal/router and the two-tier cache, README must carry the
// "Running a replica set" walkthrough touching every endpoint and the
// -peers/-snapshot flags, and DESIGN.md §6's scenario table must list
// every catalog scenario (including cluster-scatter).
func TestReplicaDocsCoverRouter(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s7 := strings.Index(doc, "## §7")
	if s7 < 0 {
		t.Fatal("DESIGN.md has no §7 (multi-replica serving)")
	}
	sec7 := doc[s7:]
	for _, want := range []string{
		"internal/router", "ConsistentHash", "PlaceK", "SnapshotPath",
		"RouteKey", "FuzzDecodeResult", "FuzzParseAxis", "cluster-scatter",
	} {
		if !strings.Contains(sec7, want) {
			t.Errorf("DESIGN.md §7 no longer mentions %q", want)
		}
	}
	// §6's scenario table must index the whole load catalog.
	s6 := strings.Index(doc, "## §6")
	if s6 < 0 || s6 >= s7 {
		t.Fatal("DESIGN.md lost its §6/§7 structure")
	}
	sec6 := doc[s6:s7]
	for _, sc := range load.Scenarios() {
		if !strings.Contains(sec6, "| "+sc.Name+" ") {
			t.Errorf("DESIGN.md §6 scenario table is missing a row for %s", sc.Name)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := string(readme)
	start := strings.Index(rdoc, "## Running a replica set")
	if start < 0 {
		t.Fatal("README.md has no \"Running a replica set\" walkthrough")
	}
	end := strings.Index(rdoc[start:], "\n## Benchmarks")
	if end < 0 {
		t.Fatal("README.md replica walkthrough lost its section boundary")
	}
	sec := rdoc[start : start+end]
	for _, want := range []string{
		"-peers", "-snapshot", "/healthz", "/experiments", "/run/", "/sweep", "/stats",
		"cluster-scatter", "-replicas",
	} {
		if !strings.Contains(sec, want) {
			t.Errorf("README replica walkthrough no longer mentions %q", want)
		}
	}
}

// The routing docs cannot drift from the hedging implementation:
// DESIGN.md §7 must document the latency scoreboard, the adaptive
// budget, the hedge marker header, the floor constant, demotion with
// canaries, the batch exactly-once carve-out, and the scoreboard metric
// families (whose §9 table rows the registry check above already pins);
// README's replica walkthrough must cover the /v1 surface, the error
// envelope, and the degraded-replica drill. The §6 scenario-table check
// in TestReplicaDocsCoverRouter pins the degraded-replica row itself
// via load.Scenarios().
func TestRoutingDocsCoverHedging(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s7 := strings.Index(doc, "## §7")
	if s7 < 0 {
		t.Fatal("DESIGN.md has no §7 (multi-replica serving)")
	}
	// Collapse whitespace so pinned phrases may wrap.
	sec7 := strings.Join(strings.Fields(doc[s7:]), " ")
	for _, want := range []string{
		"scoreboard", "EWMA mean + 3σ", httpapi.HeaderHedge,
		"router.DefaultHedgeFloor", "Demotion", "canary", "exactly-once",
		"arch21_backend_latency_seconds", "arch21_backend_inflight",
		"arch21_backend_hedges_total", "arch21_backend_hedge_wins_total",
		"degraded-replica",
	} {
		if !strings.Contains(sec7, want) {
			t.Errorf("DESIGN.md §7 no longer documents %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := string(readme)
	start := strings.Index(rdoc, "## Running a replica set")
	if start < 0 {
		t.Fatal("README.md has no \"Running a replica set\" walkthrough")
	}
	end := strings.Index(rdoc[start:], "\n## Benchmarks")
	if end < 0 {
		t.Fatal("README.md replica walkthrough lost its section boundary")
	}
	sec := strings.Join(strings.Fields(rdoc[start:start+end]), " ")
	for _, want := range []string{
		"/v1/", `{"error":{"code","message","retry_after_ms"}}`,
		httpapi.HeaderHedge, "degraded-replica", "-degrade",
		"arch21_backend_latency_seconds", "arch21_backend_hedges_total",
	} {
		if !strings.Contains(sec, want) {
			t.Errorf("README replica walkthrough no longer documents %q", want)
		}
	}
}

// The QoS docs cannot drift from the admit package: DESIGN.md §8 must
// name every scheduling policy and request class exactly as the code
// does (the policy list is pinned to admit.Policies()), plus the header
// contract and shed status semantics; README must document the QoS
// flags (-batch-rate, -lc-slo, loadtest -class) and the colocation make
// target. The §6 scenario-table check in TestReplicaDocsCoverRouter
// already pins the colocation scenario row via load.Scenarios().
func TestQoSDocsCoverAdmit(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s8 := strings.Index(doc, "## §8")
	if s8 < 0 {
		t.Fatal("DESIGN.md has no §8 (QoS & admission control)")
	}
	sec8 := doc[s8:]
	for _, p := range admit.Policies() {
		if !strings.Contains(sec8, "`"+p.String()+"`") {
			t.Errorf("DESIGN.md §8 does not document policy %q", p)
		}
	}
	for _, c := range admit.Classes() {
		if !strings.Contains(sec8, "`"+c.String()+"`") {
			t.Errorf("DESIGN.md §8 does not document class %q", c)
		}
	}
	// Collapse whitespace so the conservation-law sentence may wrap.
	squashed := strings.Join(strings.Fields(sec8), " ")
	for _, want := range []string{
		"internal/admit", admit.HeaderClass, admit.HeaderDeadlineMS,
		"Retry-After", "429", "503", "504",
		"hits + deduped + sheds + executions == requests",
		"-lc-slo", "-batch-rate", "colocation",
	} {
		if !strings.Contains(squashed, want) {
			t.Errorf("DESIGN.md §8 no longer mentions %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := string(readme)
	for _, want := range []string{
		"-batch-rate", "-lc-slo", "-class", "loadtest-colocation",
		admit.HeaderClass, admit.HeaderDeadlineMS, "Retry-After",
	} {
		if !strings.Contains(rdoc, want) {
			t.Errorf("README.md no longer mentions %q", want)
		}
	}
}

// The observability docs are generated-checked against the live
// registries: DESIGN.md §9's metric table must list exactly the families
// the engine and router registries expose (both directions — a family
// added in code without a doc row fails, and a doc row naming a family
// the code no longer registers fails), with the right type; the §9 event
// vocabulary is pinned to obs.EventTypes(); README's observability
// quickstart must cover the endpoints and the ctl flow.
func TestObservabilityDocsCoverObs(t *testing.T) {
	// A tenant vocabulary is configured so the tenant-labeled families
	// register and the both-directions check covers them too.
	eng := serve.NewEngine(serve.Config{Workers: 1, Tenants: []string{"alpha"}})
	defer eng.Close()
	rt, err := router.New([]router.Backend{router.NewEngineBackend(eng, "e0")}, router.Config{})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	families := map[string]obs.Family{}
	for _, reg := range []*obs.Registry{eng.MetricsRegistry(), rt.MetricsRegistry()} {
		for _, f := range reg.Families() {
			families[f.Name] = f
		}
	}

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s9 := strings.Index(doc, "## §9")
	if s9 < 0 {
		t.Fatal("DESIGN.md has no §9 (observability & control plane)")
	}
	sec9 := doc[s9:]

	// Code -> docs: every registered family has a table row of the right
	// type.
	for name, f := range families {
		row := ""
		for _, line := range strings.Split(sec9, "\n") {
			if strings.HasPrefix(line, "| `"+name+"` ") {
				row = line
				break
			}
		}
		if row == "" {
			t.Errorf("DESIGN.md §9 metric table is missing a row for %s", name)
			continue
		}
		if !strings.Contains(row, "| "+string(f.Type)+" |") {
			t.Errorf("DESIGN.md §9 row for %s does not carry its type %q: %s", name, f.Type, row)
		}
	}
	// Docs -> code: no table row may name an unregistered family.
	for _, line := range strings.Split(sec9, "\n") {
		if !strings.HasPrefix(line, "| `arch21_") {
			continue
		}
		name := strings.SplitN(line, "`", 3)[1]
		if _, ok := families[name]; !ok {
			t.Errorf("DESIGN.md §9 documents %s, which no registry exposes", name)
		}
	}
	// The event vocabulary is pinned to the code's.
	for _, typ := range obs.EventTypes() {
		if !strings.Contains(sec9, "`"+typ+"`") {
			t.Errorf("DESIGN.md §9 does not document event type %q", typ)
		}
	}
	squashed := strings.Join(strings.Fields(sec9), " ")
	for _, want := range []string{
		"internal/obs", "GET /metrics", "GET /events", "POST /control",
		"obs.Lint", "TakeClassWindow", "snapshot difference", "stats.AtomicHistogram", "arch21 ctl",
		"-events-log", "207", "schema 2",
	} {
		if !strings.Contains(squashed, want) {
			t.Errorf("DESIGN.md §9 no longer mentions %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := string(readme)
	start := strings.Index(rdoc, "## Observability & live control")
	if start < 0 {
		t.Fatal("README.md has no \"Observability & live control\" section")
	}
	end := strings.Index(rdoc[start:], "\n## ")
	if end < 0 {
		t.Fatal("README observability section lost its boundary")
	}
	sec := rdoc[start : start+end]
	for _, want := range []string{
		"/metrics", "/events?since=", "arch21 ctl", "-batch-rate",
		"-slo", "-policy", "batch_rate", "slo_ms", "policy",
		"-events-log", "metrics-smoke", "-lc-slo", "207",
		"arch21_request_duration_seconds_bucket",
	} {
		if !strings.Contains(sec, want) {
			t.Errorf("README observability section no longer mentions %q", want)
		}
	}
}

// The adversarial-workload docs cannot drift: DESIGN.md §6 must cover
// the rate-schedule spec syntax, churn, the schema-3 report fields, and
// the soak/chaos mode with its three invariants; §8 must carry the
// tenant header contract; README must document the chaos flags and the
// new scenarios. (The §6 scenario
// table itself is pinned dynamically to load.Scenarios() by
// TestReplicaDocsCoverRouter, so the diurnal/flash-crowd/multi-tenant
// rows are already enforced there.)
func TestAdversarialWorkloadDocs(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s6 := strings.Index(doc, "## §6")
	s7 := strings.Index(doc, "## §7")
	if s6 < 0 || s7 < 0 || s7 <= s6 {
		t.Fatal("DESIGN.md lost its §6/§7 structure")
	}
	sec6 := strings.Join(strings.Fields(doc[s6:s7]), " ")
	for _, want := range []string{
		"RateSchedule", "`rate@dur`", "`lo:hi@dur`", "FuzzParseRateSchedule",
		"churn", "`schema: 3`", "`per_tenant`", "fairness_index",
		"Jain",
		"-chaos", "-soak-duration", "RunChaos", "FaultBackend",
		"hits + deduped + sheds + executions == requests",
		"NumGoroutine", "heap growth", "chaos-smoke",
	} {
		if !strings.Contains(sec6, want) {
			t.Errorf("DESIGN.md §6 no longer mentions %q", want)
		}
	}
	s8 := strings.Index(doc, "## §8")
	if s8 < 0 {
		t.Fatal("DESIGN.md has no §8")
	}
	sec8 := strings.Join(strings.Fields(doc[s8:]), " ")
	for _, want := range []string{
		admit.HeaderTenant, "admit.WithTenant", "`other` bucket",
		"declared, not trusted",
	} {
		if !strings.Contains(sec8, want) {
			t.Errorf("DESIGN.md §8 no longer mentions %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := string(readme)
	for _, want := range []string{
		"-chaos", "-soak-duration", "chaos-smoke", "-tenants",
		"flash-crowd", "diurnal", "multi-tenant", "fairness",
	} {
		if !strings.Contains(rdoc, want) {
			t.Errorf("README.md no longer mentions %q", want)
		}
	}
}

// The slab-cache docs cannot drift from the tier-1 implementation:
// DESIGN.md §4 must document the segment-arena layout, the open-
// addressed offset index, the fixed in-place hit word, the eviction
// policy vocabulary (pinned to serve's ParseEvictionPolicy names), the
// aliasing contract, the read-mostly Get and its alignment rule, the
// zero-copy bin format, and the benchmark harness; §6 must carry the
// report's allocs_per_request, the exact allocation ratchet and the one
// latency instrument; README must document the cache flags and the
// zero-alloc perf note.
func TestSlabCacheDocs(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s4 := strings.Index(doc, "## §4")
	s5 := strings.Index(doc, "## §5")
	if s4 < 0 || s5 < 0 || s5 <= s4 {
		t.Fatal("DESIGN.md lost its §4/§5 structure")
	}
	// Collapse whitespace so pinned phrases may wrap.
	sec4 := strings.Join(strings.Fields(doc[s4:s5]), " ")
	for _, want := range []string{
		"segment arenas", "open-addressed offset index", "O(segments)",
		"8-byte hit word at offset 0", "in place",
		"aliasing contract", "copy-on-read",
		"format=bin", "application/octet-stream", "ServeEncoded",
		"read-mostly `Get`", "alignment rule", "bench-engine",
		"b.ReportAllocs()", "TestServeEncodedWarmHitAllocs",
	} {
		if !strings.Contains(sec4, want) {
			t.Errorf("DESIGN.md §4 no longer documents %q", want)
		}
	}
	// The eviction vocabulary is pinned to the code's parser: every name
	// ParseEvictionPolicy accepts must be documented as a policy.
	for _, name := range []string{"lru", "cost"} {
		if p, err := serve.ParseEvictionPolicy(name); err != nil || p.String() != name {
			t.Errorf("serve.ParseEvictionPolicy(%q) = %v, %v — docs pin this vocabulary", name, p, err)
		}
		if !strings.Contains(sec4, "`"+name+"`") {
			t.Errorf("DESIGN.md §4 does not document eviction policy %q", name)
		}
	}

	s6 := strings.Index(doc, "## §6")
	s7 := strings.Index(doc, "## §7")
	if s6 < 0 || s7 < 0 || s7 <= s6 {
		t.Fatal("DESIGN.md lost its §6/§7 structure")
	}
	sec6 := strings.Join(strings.Fields(doc[s6:s7]), " ")
	for _, want := range []string{
		"`allocs_per_request`", "Mallocs delta", "ratchet", "One latency instrument",
		"stripes", "`HistogramSnapshot.Quantile`", "never frozen", "bench-engine",
	} {
		if !strings.Contains(sec6, want) {
			t.Errorf("DESIGN.md §6 no longer documents %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := strings.Join(strings.Fields(string(readme)), " ")
	for _, want := range []string{
		"-cache-bytes", "-cache-policy", "zero-copy", "0 allocs/op",
		"TestServeEncodedWarmHitAllocs", "allocs_per_request",
	} {
		if !strings.Contains(rdoc, want) {
			t.Errorf("README.md no longer documents %q", want)
		}
	}
}

// The batched-data-plane docs cannot drift: DESIGN.md §4 must document
// the batch frame format with the exact magics, version, and bounds the
// codec exports, plus the fuzz target, and the one JSON appender; §5 the
// miss pass and the sweep stream; §7 the one routed lane, the replica
// stream and the request identity (the documented metric families are
// already pinned both ways against the live registries by
// TestObservabilityDocsCoverObs); README's replica walkthrough must carry
// the cluster-throughput section.
func TestBatchedDataPlaneDocs(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	doc := string(design)
	s4 := strings.Index(doc, "## §4")
	s5 := strings.Index(doc, "## §5")
	if s4 < 0 || s5 < 0 || s5 <= s4 {
		t.Fatal("DESIGN.md lost its §4/§5 structure")
	}
	sec4 := strings.Join(strings.Fields(doc[s4:s5]), " ")
	for _, want := range []string{
		"POST /v1/batch",
		"`" + httpapi.BatchRequestMagic + "`",
		"`" + httpapi.BatchResponseMagic + "`",
		"httpapi.BatchVersion", "outcome word",
		"httpapi.MaxBatchEntries", "httpapi.MaxBatchBytes",
		"ErrBatchFrame", "httpapi.GetBuffer", "FuzzBatchFrame",
		// The one JSON appender and its three callers.
		"httpapi.AppendJSONString", "httpapi.AppendJSONFloat", "FuzzAppendJSONString",
	} {
		if !strings.Contains(sec4, want) {
			t.Errorf("DESIGN.md §4 no longer documents %q", want)
		}
	}
	// §5: the miss pass and the hand-appended stream, by the names the
	// code uses.
	s6 := strings.Index(doc, "## §6")
	if s6 <= s5 {
		t.Fatal("DESIGN.md lost its §5/§6 structure")
	}
	sec5 := strings.Join(strings.Fields(doc[s5:s6]), " ")
	for _, want := range []string{
		"Engine.serveMisses", "sched.Workers()", "serveMissRaw", "BenchmarkColdWave", "BenchmarkColdFloor",
		"misspass_test.go", "httpapi.AppendJSONString", "httpapi.GetBuffer", "one `Write`", "Point.More",
	} {
		if !strings.Contains(sec5, want) {
			t.Errorf("DESIGN.md §5 no longer documents %q", want)
		}
	}

	s7 := strings.Index(doc, "## §7")
	if s7 < 0 {
		t.Fatal("DESIGN.md has no §7")
	}
	sec7 := strings.Join(strings.Fields(doc[s7:]), " ")
	for _, want := range []string{
		"`router.Backend` is `DoBatch` + `Check` + `Name`", "ServeEncodedBatch", "httpapi.AppendJSONString",
		"frame of one", "`Router.exchange`", "*removed in PR 23*",
		"arch21_batched_requests_total", "arch21_batch_size",
		"sweep.Server", "exactly-once",
		// The replica stream: handshake, caps, fallback, observability.
		"GET /v1/stream", "`Upgrade: " + httpapi.StreamProtocol + "`", "http.Hijacker",
		"httpapi.MaxBatchBytes", "httpapi.MaxStreamReplyBytes", "FuzzStreamMessage",
		"serve.ServeBatchFrame", "`404`, `405`, `426`", "transport failure", "`cancel id`",
		"`\"transport\": \"stream\" | \"http\"`", "arch21_backend_stream_redials_total",
		"BenchmarkHop", "Engine.Close",
		// The request identity: what is interned, how it is found, the cap.
		"**Request identity.**", "serve.Identity", "serve.Intern", "serve.IdentOf",
		"httpapi.BatchWalker", "**The cap rule:** 8192 rows", "`routeTab`", "`BatchItem.Key`",
	} {
		if !strings.Contains(sec7, want) {
			t.Errorf("DESIGN.md §7 no longer documents %q", want)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	rdoc := string(readme)
	start := strings.Index(rdoc, "## Running a replica set")
	if start < 0 {
		t.Fatal("README.md has no \"Running a replica set\" walkthrough")
	}
	end := strings.Index(rdoc[start:], "\n## Benchmarks")
	if end < 0 {
		t.Fatal("README replica walkthrough lost its section boundary")
	}
	sec := strings.Join(strings.Fields(rdoc[start:start+end]), " ")
	for _, want := range []string{
		"### Cluster throughput", "/v1/batch",
		"`" + httpapi.BatchRequestMagic + "`",
		"`" + httpapi.BatchResponseMagic + "`",
		"outcome word",
		"arch21_batched_requests_total", "arch21_batch_size", "cluster-scatter",
	} {
		if !strings.Contains(sec, want) {
			t.Errorf("README cluster-throughput walkthrough no longer documents %q", want)
		}
	}
}

// Every internal package carries a package-level godoc comment
// ("// Package <name> ..."), and every command a "// Command <name> ..."
// one.
func TestEveryPackageHasGodoc(t *testing.T) {
	check := func(dir, prefix string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		for _, ent := range entries {
			if !ent.IsDir() {
				continue
			}
			name := ent.Name()
			files, err := filepath.Glob(filepath.Join(dir, name, "*.go"))
			if err != nil || len(files) == 0 {
				continue
			}
			want := prefix + " " + name + " "
			found := false
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatalf("read %s: %v", f, err)
				}
				if strings.Contains(string(src), "\n"+want) ||
					strings.HasPrefix(string(src), want) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s/%s has no package-level godoc (%q...)", dir, name, want)
			}
		}
	}
	check("internal", "// Package")
	check("cmd", "// Command")
}
