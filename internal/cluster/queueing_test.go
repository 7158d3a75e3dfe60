package cluster

import (
	"testing"

	"repro/internal/stats"
)

// TestQueueingHighUtilizationEdge guards the load-dependence property the
// DES queueing model promises at the hard end: as RootRate approaches leaf
// saturation (service rate 1000/s per leaf, one task per leaf per root
// request), the P99 must keep growing — steeply near saturation — and no
// request may be lost even when queues are long.
func TestQueueingHighUtilizationEdge(t *testing.T) {
	base := QueueingConfig{
		Leaves:      10,
		LeafService: stats.Exponential{Rate: 1000}, // 1ms mean per leaf task
		Requests:    3000,
		Seed:        42,
	}
	rates := []float64{300, 600, 900, 970} // ~30%..97% utilization
	var results []QueueingResult
	for _, rate := range rates {
		cfg := base
		cfg.RootRate = rate
		res := SimulateQueueing(cfg)
		if res.Completed != cfg.Requests {
			t.Fatalf("rate %v: completed %d of %d requests", rate, res.Completed, cfg.Requests)
		}
		if res.P99 <= 0 {
			t.Fatalf("rate %v: implausible p99 %v", rate, res.P99)
		}
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].P99 <= results[i-1].P99 {
			t.Fatalf("P99 must grow with load: rate %v -> %v but p99 %v -> %v",
				rates[i-1], rates[i], results[i-1].P99, results[i].P99)
		}
		if results[i].MeanLeafUtilization <= results[i-1].MeanLeafUtilization {
			t.Fatalf("utilization must grow with load: rate %v -> %v but util %v -> %v",
				rates[i-1], rates[i], results[i-1].MeanLeafUtilization,
				results[i].MeanLeafUtilization)
		}
	}
	// Near saturation the tail should blow up qualitatively, not creep:
	// p99 at 97% load must be many times the lightly loaded p99.
	lo, hi := results[0], results[len(results)-1]
	if hi.P99 < 5*lo.P99 {
		t.Fatalf("near-saturation p99 %v is not >= 5x light-load p99 %v", hi.P99, lo.P99)
	}
	// Sanity on the utilization estimate itself at the edge.
	if hi.MeanLeafUtilization < 0.85 || hi.MeanLeafUtilization > 1.0 {
		t.Fatalf("near-saturation utilization implausible: %v", hi.MeanLeafUtilization)
	}
}
