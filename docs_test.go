package repro

// Docs-drift guards, run by `make docs-check`. The DESIGN.md blocks that
// copy a registry (§2 experiments, §6 load scenarios, §9 metric families
// and event types) are rendered from the code and compared byte for byte;
// a stale block fails and prints its replacement. Every other pinned
// phrase sits in one table, each row owned by the test that checks it.

import (
	"fmt"
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

// row renders one markdown table row.
func row(cells ...string) string { return "| " + strings.Join(cells, " | ") + " |\n" }

// ticked renders names as code spans joined by sep, or — when there are none.
func ticked(names []string, sep string) string {
	if len(names) == 0 {
		return "—"
	}
	return "`" + strings.Join(names, "`"+sep+"`") + "`"
}

// generatedBlocks renders each DESIGN.md block that copies a registry, as
// {marker name, body} pairs.
func generatedBlocks(t *testing.T) [][2]string {
	exps := row("ID", "Claim reproduced", "Parameters") + row("---", "---", "---")
	for _, e := range core.Registry() {
		var specs []string
		for _, s := range e.Params {
			specs = append(specs, s.String())
		}
		exps += row(e.ID, e.Title, ticked(specs, " "))
	}
	scens := row("scenario", "mode", "what it stresses") + row("---", "---", "---")
	for _, sc := range load.Scenarios() {
		scens += row(sc.Name, sc.Mode.String(), sc.Doc)
	}
	// A tenant vocabulary makes the tenant-labeled families register.
	eng := serve.NewEngine(serve.Config{Workers: 1, Tenants: []string{"alpha"}})
	t.Cleanup(eng.Close)
	rt, err := router.New([]router.Backend{router.NewEngineBackend(eng, "e0")}, router.Config{})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	var fams []obs.Family
	from := map[string][]string{}
	for i, reg := range []*obs.Registry{eng.MetricsRegistry(), rt.MetricsRegistry()} {
		for _, f := range reg.Families() {
			if from[f.Name] == nil {
				fams = append(fams, f)
			}
			from[f.Name] = append(from[f.Name], []string{"engine", "router"}[i])
		}
	}
	metrics := row("family", "type", "registry", "labels", "help") + row("---", "---", "---", "---", "---")
	for _, f := range fams {
		metrics += row("`"+f.Name+"`", string(f.Type), strings.Join(from[f.Name], ", "), ticked(f.Labels, ", "), f.Help)
	}
	return [][2]string{{"experiments", exps}, {"scenarios", scens}, {"metrics", metrics},
		{"events", ticked(obs.EventTypes(), ", ") + "\n"}}
}

// Each generated block in DESIGN.md is exactly what the code renders.
func TestRegistryMatchesDesignDoc(t *testing.T) {
	doc := readDoc(t, "DESIGN.md")
	for _, b := range generatedBlocks(t) {
		begin, end := "<!-- generated: "+b[0]+" -->\n", "<!-- end: "+b[0]+" -->"
		i, j := strings.Index(doc, begin), strings.Index(doc, end)
		if i < 0 || j < i || doc[i+len(begin):j] != b[1] {
			t.Errorf("DESIGN.md's %q block is stale; paste the block printed below in its place", b[0])
			fmt.Printf("%s%s%s\n", begin, b[1], end)
		}
	}
}

func readDoc(t *testing.T, file string) string {
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatalf("read %s: %v", file, err)
	}
	return string(raw)
}

// section returns doc's "## <heading>" section ("" if none; all of doc for
// no heading) with whitespace collapsed, so pinned phrases may wrap.
func section(doc, heading string) string {
	if i := strings.Index(doc, "\n## "+heading); heading != "" {
		if i < 0 {
			return ""
		}
		doc = doc[i+1:]
		if j := strings.Index(doc[1:], "\n## "); j >= 0 {
			doc = doc[:j+1]
		}
	}
	return strings.Join(strings.Fields(doc), " ")
}

// A docPin is a row of the one phrase table: the test that owns it, a
// file, a "## " section of it ("" for the whole file) and the phrases
// that section must keep.
type docPin struct {
	test, file, section string
	phrases             []string
}

// docPins is the one table of phrases the docs must keep naming as the
// code and the flags do.
func docPins() []docPin {
	qos := []string{"One discipline", "one token per worker", "E15", "power check"}
	for _, c := range admit.Classes() {
		qos = append(qos, "`"+c.String()+"`")
	}
	magics := []string{"`" + httpapi.BatchRequestMagic + "`", "`" + httpapi.BatchResponseMagic + "`"}
	const replica, routing, qosT, obsT = "TestReplicaDocsCoverRouter", "TestRoutingDocsCoverHedging",
		"TestQoSDocsCoverAdmit", "TestObservabilityDocsCoverObs"
	const adv, slab, batched = "TestAdversarialWorkloadDocs", "TestSlabCacheDocs", "TestBatchedDataPlaneDocs"
	const walk = "Running a replica set"
	return []docPin{
		{replica, "DESIGN.md", "§7", []string{"internal/router", "ConsistentHash", "PlaceK", "SnapshotPath",
			"serve.IdentOf(id, params).Key()", "FuzzDecodeResult", "FuzzParseAxis", "cluster-scatter"}},
		{replica, "README.md", walk, []string{"-peers", "-snapshot", "/healthz", "/experiments", "/run/", "/sweep",
			"/stats", "cluster-scatter", "-replicas"}},
		{routing, "DESIGN.md", "§7", []string{"scoreboard", "EWMA mean + 3σ", httpapi.HeaderHedge,
			"router.DefaultHedgeFloor", "Demotion", "canary", "exactly-once", "arch21_backend_latency_seconds",
			"arch21_backend_inflight", "arch21_backend_hedges_total", "arch21_backend_hedge_wins_total",
			"degraded-replica"}},
		{routing, "README.md", walk, []string{"/v1/", `{"error":{"code","message","retry_after_ms"}}`,
			httpapi.HeaderHedge, "degraded-replica", "-degrade", "arch21_backend_latency_seconds",
			"arch21_backend_hedges_total"}},
		{qosT, "DESIGN.md", "§8", append(qos, "internal/admit", admit.HeaderClass, admit.HeaderDeadlineMS,
			"Retry-After", "429", "503", "504", "hits + deduped + sheds + executions == requests", "-lc-slo",
			"-batch-rate", "colocation")},
		{qosT, "README.md", "", []string{"-batch-rate", "-lc-slo", "-class", "loadtest-colocation",
			admit.HeaderClass, admit.HeaderDeadlineMS, "Retry-After"}},
		{obsT, "DESIGN.md", "§9", []string{"internal/obs", "GET /metrics", "GET /events", "POST /control",
			"obs.Lint", "TakeClassWindow", "snapshot difference", "stats.AtomicHistogram", "arch21 ctl",
			"-events-log", "207", "schema 2", "serve.DecodeControl", "unknown key"}},
		{obsT, "README.md", "Observability & live control", []string{"/metrics", "/events?since=", "arch21 ctl",
			"-batch-rate", "-slo", "batch_rate", "slo_ms", "one discipline", "unknown key", "400", "-events-log", "metrics-smoke",
			"-lc-slo", "207", "arch21_request_duration_seconds_bucket"}},
		{adv, "DESIGN.md", "§6", []string{"RateSchedule", "`rate@dur`", "`lo:hi@dur`", "FuzzParseRateSchedule",
			"churn", "`schema: 3`", "`per_tenant`", "fairness_index", "Jain", "-chaos", "-soak-duration",
			"RunChaos", "FaultBackend", "hits + deduped + sheds + executions == requests", "NumGoroutine",
			"heap growth", "chaos-smoke"}},
		{adv, "DESIGN.md", "§8", []string{admit.HeaderTenant, "admit.WithTenant", "`other` bucket",
			"declared, not trusted"}},
		{adv, "README.md", "", []string{"-chaos", "-soak-duration", "chaos-smoke", "-tenants", "flash-crowd",
			"diurnal", "multi-tenant", "fairness"}},
		{slab, "DESIGN.md", "§4", []string{"Eviction is CLOCK", "segment arenas", "open-addressed offset index",
			"O(segments)", "20-byte header", "state word at offset 12", "in place", "aliasing contract", "copy-on-read",
			"format=bin", "application/octet-stream", "ServeEncoded", "read-mostly `Get`", "alignment rule",
			"bench-engine", "b.ReportAllocs()", "TestServeEncodedWarmHitAllocs"}},
		{slab, "DESIGN.md", "§6", []string{"`allocs_per_request`", "Mallocs delta", "ratchet",
			"One latency instrument", "stripes", "`HistogramSnapshot.Quantile`", "never frozen", "bench-engine"}},
		{slab, "README.md", "", []string{"-cache-bytes", "zero-copy", "0 allocs/op",
			"TestServeEncodedWarmHitAllocs", "allocs_per_request"}},
		{batched, "DESIGN.md", "§4", append(magics, "POST /v1/batch", "httpapi.BatchVersion", "outcome word",
			"httpapi.MaxBatchEntries", "httpapi.MaxBatchBytes", "ErrBatchFrame", "httpapi.GetBuffer",
			"FuzzBatchFrame", "httpapi.AppendJSONString", "httpapi.AppendJSONFloat", "FuzzAppendJSONString")},
		{batched, "DESIGN.md", "§5", []string{"Engine.serveMisses", "sched.Workers()", "serveMissRaw",
			"BenchmarkColdWave", "BenchmarkColdFloor", "misspass_test.go", "httpapi.AppendJSONString",
			"httpapi.GetBuffer", "one `Write`", "Point.More"}},
		{batched, "DESIGN.md", "§7", []string{"`router.Backend` is `DoBatch` + `Check` + `Name`",
			"ServeEncodedBatch", "httpapi.AppendJSONString", "frame of one", "`Router.exchange`",
			"*removed in PR 23*", "arch21_batched_requests_total", "arch21_batch_size", "sweep.Server",
			"exactly-once", "GET /v1/stream", "`Upgrade: " + httpapi.StreamProtocol + "`", "http.Hijacker",
			"httpapi.MaxBatchBytes", "httpapi.MaxStreamReplyBytes", "FuzzStreamMessage", "serve.ServeBatchFrame",
			"*The one-carrier rule.*", "anything but `101`", "transport failure", "`cancel id`",
			"never a `replicaError` carrying the peer's status", "TestRefusedUpgradeFailsOverAndEjects",
			"arch21_backend_stream_redials_total", "BenchmarkHop", "Engine.Close", "**Request identity.**",
			"serve.Identity", "serve.Intern", "serve.IdentOf", "httpapi.BatchWalker",
			"**The cap rule:** 8192 rows", "`routeTab`", "`BatchItem.Key`"}},
		{batched, "README.md", walk, append(magics, "### Cluster throughput", "/v1/batch", "outcome word",
			"arch21_batched_requests_total", "arch21_batch_size", "cluster-scatter")},
	}
}

// checkPins fails t for each phrase that a section of its rows lost.
func checkPins(t *testing.T) {
	docs := map[string]string{"DESIGN.md": readDoc(t, "DESIGN.md"), "README.md": readDoc(t, "README.md")}
	for _, p := range docPins() {
		if p.test != t.Name() {
			continue
		}
		sec := section(docs[p.file], p.section)
		for _, want := range p.phrases {
			if !strings.Contains(sec, want) {
				t.Errorf("%s %s no longer mentions %q", p.file, p.section, want)
			}
		}
	}
}

// The §6 scenario rows and the §9 families and event types these tests
// once pinned are generated blocks now.
func TestReplicaDocsCoverRouter(t *testing.T)    { checkPins(t) }
func TestRoutingDocsCoverHedging(t *testing.T)   { checkPins(t) }
func TestQoSDocsCoverAdmit(t *testing.T)         { checkPins(t) }
func TestObservabilityDocsCoverObs(t *testing.T) { checkPins(t) }
func TestAdversarialWorkloadDocs(t *testing.T)   { checkPins(t) }
func TestBatchedDataPlaneDocs(t *testing.T)      { checkPins(t) }

func TestSlabCacheDocs(t *testing.T) { checkPins(t) }

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
		// experiment (this is what a bare-ID request runs).
		if _, err := e.ResolveParams(nil); err != nil {
			t.Errorf("%s: ResolveParams(nil): %v", e.ID, err)
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
