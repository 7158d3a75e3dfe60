package router

// /stats and /metrics read the same per-replica row: after traffic that
// hedges, fails over and ejects, every backend's health row in the JSON
// snapshot equals its samples in the exposition, and the router's hedge
// totals equal the rows' sums.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrapeBackendSamples reads every arch21_backend_* sample of a /metrics
// body into family -> backend -> value.
func scrapeBackendSamples(t *testing.T, body string) map[string]map[string]float64 {
	t.Helper()
	out := map[string]map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "arch21_backend_") {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		backend, found := strings.CutPrefix(strings.TrimSuffix(labels, "}"), `backend="`)
		if !ok || !found {
			t.Fatalf("unexpected sample %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if out[name] == nil {
			out[name] = map[string]float64{}
		}
		out[name][strings.TrimSuffix(backend, `"`)] = v
	}
	return out
}

func TestStatsAndMetricsReadOneRow(t *testing.T) {
	r, faults, _, _ := newTestCluster(t, 3, Config{Timeout: 2 * time.Second, ProbeAfter: time.Hour}, false)
	for b := range faults {
		primeScore(r, b, 100*time.Microsecond)
	}
	ctx := context.Background()
	// A hedge: the owner is slow, its backup answers.
	faults[0].Degrade(150 * time.Millisecond)
	if _, err := serveDecoded(ctx, r, keyOwnedBy(t, r, 0), nil); err != nil {
		t.Fatalf("hedged request: %v", err)
	}
	faults[0].Degrade(0)
	// Failovers until the dead owner is ejected.
	faults[1].Kill()
	for i := 0; i < 3; i++ {
		if _, err := serveDecoded(ctx, r, keyOwnedBy(t, r, 1), nil); err != nil {
			t.Fatalf("request %d on the dead owner did not fail over: %v", i, err)
		}
	}
	waitInflightDrain(t, r)

	get := func(path string) string {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, rec.Code)
		}
		return rec.Body.String()
	}
	var m Metrics
	if err := json.Unmarshal([]byte(get("/stats")), &m); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	if m.Hedges == 0 || m.Failovers == 0 || !m.Health[1].Ejected {
		t.Fatalf("traffic did not hedge, fail over and eject: %+v", m)
	}
	samples := scrapeBackendSamples(t, get("/metrics"))
	var hedges, wins int64
	for _, row := range m.Health {
		up := 1.0
		if row.Ejected {
			up = 0
		}
		for family, want := range map[string]float64{
			"arch21_backend_up":               up,
			"arch21_backend_requests_total":   float64(row.Requests),
			"arch21_backend_failures_total":   float64(row.Failures),
			"arch21_backend_ejections_total":  float64(row.Ejections),
			"arch21_backend_inflight":         float64(row.Inflight),
			"arch21_backend_hedges_total":     float64(row.Hedges),
			"arch21_backend_hedge_wins_total": float64(row.HedgeWins),
		} {
			if got, ok := samples[family][row.Name]; !ok || got != want {
				t.Errorf("%s{backend=%q} = %v (present %v), /stats row says %v", family, row.Name, got, ok, want)
			}
		}
		hedges += row.Hedges
		wins += row.HedgeWins
	}
	if m.Hedges != hedges || m.HedgeWins != wins {
		t.Fatalf("/stats totals hedges %d wins %d, rows sum to %d and %d", m.Hedges, m.HedgeWins, hedges, wins)
	}
}
