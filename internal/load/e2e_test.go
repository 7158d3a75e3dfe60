package load

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// newTestEngine builds an engine sized like a small arch21d.
func newTestEngine(t *testing.T) *serve.Engine {
	t.Helper()
	eng := serve.NewEngine(serve.Config{Workers: 4})
	t.Cleanup(eng.Close)
	return eng
}

// engineTarget is the in-process target over one engine, its Reset
// wired as the cache-reset hook.
func engineTarget(eng *serve.Engine) *ServerTarget {
	return NewServerTarget(eng, "engine", eng.Reset)
}

// End-to-end: the warm-hammer scenario against the real in-process
// engine must produce a schema-valid report with warm-cache hit ratios.
func TestE2EWarmHammerAgainstEngine(t *testing.T) {
	sc, ok := ScenarioByName("warm-hammer")
	if !ok {
		t.Fatal("warm-hammer missing from catalog")
	}
	rep, err := Run(engineTarget(newTestEngine(t)), sc,
		Options{Duration: 300 * time.Millisecond, Clients: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Metrics.Errors != 0 {
		t.Fatalf("warm hammer errored: %+v", rep.Metrics)
	}
	// Every variant was pre-warmed, so the measured window is hits.
	if rep.Metrics.CacheHitRatio < 0.99 {
		t.Fatalf("hit ratio %v, want ~1 after warmup", rep.Metrics.CacheHitRatio)
	}
}

// The cluster-scatter scenario against a real 3-replica router cluster:
// the BENCH harness measures routed serving like any single engine, the
// run is error-free, and placement actually scatters traffic across
// every replica.
func TestE2EClusterScatterAgainstRouter(t *testing.T) {
	sc, ok := ScenarioByName("cluster-scatter")
	if !ok {
		t.Fatal("cluster-scatter missing from catalog")
	}
	engines := make([]*serve.Engine, 3)
	backends := make([]router.Backend, 3)
	for i := range engines {
		engines[i] = newTestEngine(t)
		backends[i] = router.NewEngineBackend(engines[i], "engine")
	}
	rt, err := router.New(backends, router.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewServerTarget(rt, "router", func() {
		for _, e := range engines {
			e.Reset()
		}
	})
	rep, err := Run(tgt, sc, Options{Duration: 300 * time.Millisecond, Clients: 4})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Config.Target != "router" {
		t.Fatalf("target recorded as %q, want router", rep.Config.Target)
	}
	if rep.Metrics.Errors != 0 {
		t.Fatalf("cluster scatter errored: %+v", rep.Metrics)
	}
	if rep.Metrics.CacheHitRatio < 0.9 {
		t.Fatalf("warmed scatter hit ratio %v, want ~1", rep.Metrics.CacheHitRatio)
	}
	for i, e := range engines {
		if e.Metrics().Requests == 0 {
			t.Fatalf("replica %d saw no traffic — router is not scattering", i)
		}
	}
}

// The herd scenario stampedes one cold expensive key: singleflight and
// the cache must absorb it without errors.
func TestE2EHerdAgainstEngine(t *testing.T) {
	sc, ok := ScenarioByName("herd")
	if !ok {
		t.Fatal("herd missing from catalog")
	}
	rep, err := Run(engineTarget(newTestEngine(t)), sc,
		Options{Duration: 400 * time.Millisecond, Clients: 16})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Metrics.Errors != 0 {
		t.Fatalf("herd errored: %+v", rep.Metrics)
	}
	// After the first execution everything is a hit or a shared flight.
	if rep.Metrics.CacheHitRatio+rep.Metrics.DedupRatio < 0.5 {
		t.Fatalf("stampede not absorbed: hit=%v dedup=%v",
			rep.Metrics.CacheHitRatio, rep.Metrics.DedupRatio)
	}
}

// End-to-end over HTTP: load the same mux arch21d mounts through an
// httptest server and the HTTPTarget client, race-enabled in CI.
func TestE2ELoadtestAgainstHTTPDaemon(t *testing.T) {
	eng := newTestEngine(t)
	mux := http.NewServeMux()
	mux.Handle("/", eng.Handler())
	mux.Handle("POST /sweep", sweep.Handler(eng))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	tgt := NewHTTPTarget(srv.URL)
	if tgt.Name() != "http" {
		t.Fatalf("target name %q", tgt.Name())
	}
	sc, ok := ScenarioByName("mixed-zipf")
	if !ok {
		t.Fatal("mixed-zipf missing from catalog")
	}
	rep, err := Run(tgt, sc, Options{Duration: 300 * time.Millisecond, Rate: 150, Seed: 11})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Metrics.Errors != 0 {
		t.Fatalf("HTTP load errored: %+v", rep.Metrics)
	}
	if rep.Config.Target != "http" || rep.Config.Mode != "open" {
		t.Fatalf("config not recorded: %+v", rep.Config)
	}
	// The Zipf mix repeats hot keys, so some traffic must hit the cache.
	if rep.Metrics.CacheHitRatio == 0 {
		t.Fatal("no cache hits under a Zipf mix")
	}
}

// Bad HTTP responses surface as request errors, not panics: aim the
// target at an endpoint that 404s everything.
func TestHTTPTargetSurfacesServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(srv.Close)
	tgt := NewHTTPTarget(srv.URL)
	if _, err := tgt.Do(Variant{ID: "E7"}); err == nil {
		t.Fatal("404 did not surface as an error")
	}
}

// One normaliser serves every client of an arch21d address: the helper
// itself, the load generator's HTTP target and the front-end's backend.
func TestNewHTTPTargetNormalizesAddr(t *testing.T) {
	for addr, want := range map[string]string{
		":8021":                  "http://localhost:8021",
		"localhost:8021":         "http://localhost:8021",
		"http://example.com:80/": "http://example.com:80",
	} {
		if got := httpapi.BaseURL(addr); got != want {
			t.Fatalf("httpapi.BaseURL(%q) = %q, want %q", addr, got, want)
		}
		if got := NewHTTPTarget(addr).base; got != want {
			t.Fatalf("NewHTTPTarget(%q).base = %q, want %q", addr, got, want)
		}
		if got := router.NewHTTPBackend(addr).Name(); got != want {
			t.Fatalf("router.NewHTTPBackend(%q).Name() = %q, want %q", addr, got, want)
		}
	}
}
