package load

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// The report artifact's bytes are a contract (schema 3): a fixed report
// with every field set — the per-class and per-tenant blocks and the
// event timeline included — must encode exactly as pinned here. Fields
// are assigned one by one so the pin holds however Metrics is composed.
func TestReportJSONEncodingPinned(t *testing.T) {
	lat := func(base float64) Latency {
		return Latency{Mean: base * 2, P50: base, P95: base * 4, P99: base * 8, P999: base * 16, Min: base / 2, Max: base * 32}
	}
	cm := func(n int64) ClassMetrics {
		return ClassMetrics{Requests: n, Errors: 1, ErrorRate: 0.25, DurationSeconds: 2,
			ThroughputRPS: 1.5, CacheHitRatio: 0.5, DedupRatio: 0.125, Latency: lat(float64(n) / 1000)}
	}
	var m Metrics
	m.Requests = 8
	m.Errors = 2
	m.ErrorRate = 0.25
	m.DurationSeconds = 2
	m.ThroughputRPS = 3
	m.CacheHitRatio = 0.5
	m.DedupRatio = 0.125
	m.Latency = lat(0.002)
	m.PerClass = map[string]ClassMetrics{"interactive": cm(4), "batch": cm(3)}
	m.PerTenant = map[string]ClassMetrics{"anchor": cm(5)}
	m.FairnessIndex = 0.75
	m.AllocsPerRequest = 12.5
	rep := Report{
		Schema:    SchemaVersion,
		Scenario:  "pinned",
		Git:       "abc1234",
		GoVersion: "go-test",
		Config: Config{Target: "engine", Mode: "closed", DurationSeconds: 2, Clients: 4, Rate: 100,
			Skew: 1.1, Schedule: "60@2s", Churn: true, Tenants: []string{"anchor"}, Seed: 7,
			Variants: 151, Warm: true, Reset: true, Cores: 2},
		Metrics: m,
		Events: []obs.Event{{Seq: 3, TimeUnixNano: 1700000000000000000, Type: "control",
			Labels: map[string]string{"action": "halve"}, Data: map[string]float64{"rate_after": 48}}},
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteFile(path, rep); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != pinnedReportJSON {
		t.Fatalf("report encoding drifted:\n%s\nwant:\n%s", got, pinnedReportJSON)
	}
}

// nopTarget answers every request at once, for tests that read a
// report's configuration rather than its measurements.
type nopTarget struct{}

func (nopTarget) Do(Variant) (Outcome, error) { return Outcome{}, nil }
func (nopTarget) Name() string                { return "nop" }

// A report's catalog size counts every request the scenario can issue:
// colocation's is its 16 warmed interactive variants plus the 135-point
// batch storm.
func TestReportVariantsCountEveryGroup(t *testing.T) {
	sc, ok := ScenarioByName("colocation")
	if !ok {
		t.Fatal("colocation missing from catalog")
	}
	rep, err := Run(nopTarget{}, sc, Options{Duration: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := rep.Config.Variants; got != 151 {
		t.Fatalf("colocation config.variants = %d, want 151 (16 interactive + 135 batch)", got)
	}
}

const pinnedReportJSON = `{
  "schema": 3,
  "scenario": "pinned",
  "git": "abc1234",
  "go_version": "go-test",
  "config": {
    "target": "engine",
    "mode": "closed",
    "duration_seconds": 2,
    "clients": 4,
    "rate": 100,
    "skew": 1.1,
    "schedule": "60@2s",
    "churn": true,
    "tenants": [
      "anchor"
    ],
    "seed": 7,
    "variants": 151,
    "warm": true,
    "reset": true,
    "cores": 2
  },
  "metrics": {
    "requests": 8,
    "errors": 2,
    "error_rate": 0.25,
    "duration_seconds": 2,
    "throughput_rps": 3,
    "cache_hit_ratio": 0.5,
    "dedup_ratio": 0.125,
    "latency_seconds": {
      "mean": 0.004,
      "p50": 0.002,
      "p95": 0.008,
      "p99": 0.016,
      "p999": 0.032,
      "min": 0.001,
      "max": 0.064
    },
    "per_class": {
      "batch": {
        "requests": 3,
        "errors": 1,
        "error_rate": 0.25,
        "duration_seconds": 2,
        "throughput_rps": 1.5,
        "cache_hit_ratio": 0.5,
        "dedup_ratio": 0.125,
        "latency_seconds": {
          "mean": 0.006,
          "p50": 0.003,
          "p95": 0.012,
          "p99": 0.024,
          "p999": 0.048,
          "min": 0.0015,
          "max": 0.096
        }
      },
      "interactive": {
        "requests": 4,
        "errors": 1,
        "error_rate": 0.25,
        "duration_seconds": 2,
        "throughput_rps": 1.5,
        "cache_hit_ratio": 0.5,
        "dedup_ratio": 0.125,
        "latency_seconds": {
          "mean": 0.008,
          "p50": 0.004,
          "p95": 0.016,
          "p99": 0.032,
          "p999": 0.064,
          "min": 0.002,
          "max": 0.128
        }
      }
    },
    "per_tenant": {
      "anchor": {
        "requests": 5,
        "errors": 1,
        "error_rate": 0.25,
        "duration_seconds": 2,
        "throughput_rps": 1.5,
        "cache_hit_ratio": 0.5,
        "dedup_ratio": 0.125,
        "latency_seconds": {
          "mean": 0.01,
          "p50": 0.005,
          "p95": 0.02,
          "p99": 0.04,
          "p999": 0.08,
          "min": 0.0025,
          "max": 0.16
        }
      }
    },
    "fairness_index": 0.75,
    "allocs_per_request": 12.5
  },
  "events": [
    {
      "seq": 3,
      "t_unix_nano": 1700000000000000000,
      "type": "control",
      "labels": {
        "action": "halve"
      },
      "data": {
        "rate_after": 48
      }
    }
  ]
}
`
