package qos

import (
	"testing"

	"repro/internal/stats"
)

func baseConfig() Config {
	return Config{
		LCRate:           100,
		LCService:        stats.Exponential{Rate: 1000}, // 1ms mean
		BatchOutstanding: 4,
		BatchService:     stats.Constant{V: 0.050}, // 50ms slabs
		Duration:         200,
		Seed:             42,
	}
}

func TestSharedFIFOHurtsTail(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = SharedFIFO
	shared := Simulate(cfg)
	// LC requests queue behind 50ms batch slabs: p99 far above service.
	if shared.LCP99 < 0.040 {
		t.Fatalf("shared p99 = %v, want >= 40ms (stuck behind batch)", shared.LCP99)
	}
	if shared.LCCompleted == 0 {
		t.Fatal("no LC requests completed")
	}
}

func TestPriorityRestoresTail(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = SharedFIFO
	shared := Simulate(cfg)
	cfg.Policy = PriorityLC
	prio := Simulate(cfg)
	if prio.LCP99 >= shared.LCP99/2 {
		t.Fatalf("priority p99 %v should be far below shared %v", prio.LCP99, shared.LCP99)
	}
	// Priority is work-conserving: batch throughput shouldn't collapse.
	if prio.BatchThroughput < shared.BatchThroughput*0.5 {
		t.Fatalf("priority batch throughput collapsed: %v vs %v",
			prio.BatchThroughput, shared.BatchThroughput)
	}
}

func TestTokenBucketTradesThroughputForTail(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = SharedFIFO
	shared := Simulate(cfg)

	cfg.Policy = TokenBucket
	cfg.BucketRate = 4 // 4 batch slabs/s (~20% utilization)
	cfg.BucketDepth = 1
	tb := Simulate(cfg)
	if tb.LCP99 >= shared.LCP99 {
		t.Fatalf("token bucket p99 %v should beat shared %v", tb.LCP99, shared.LCP99)
	}
	if tb.BatchThroughput >= shared.BatchThroughput {
		t.Fatal("throttling must cost batch throughput")
	}
	if tb.BatchThroughput <= 0 {
		t.Fatal("batch starved entirely")
	}
}

func TestUtilizationBounded(t *testing.T) {
	for _, p := range []Policy{SharedFIFO, PriorityLC, TokenBucket} {
		cfg := baseConfig()
		cfg.Policy = p
		cfg.BucketRate = 5
		cfg.BucketDepth = 1
		r := Simulate(cfg)
		if r.Utilization <= 0 || r.Utilization > 1.001 {
			t.Fatalf("%v utilization = %v", p, r.Utilization)
		}
		if r.LCP50 > r.LCP99 {
			t.Fatalf("%v p50 > p99", p)
		}
	}
}

func TestDeterminism(t *testing.T) {
	cfg := baseConfig()
	cfg.Policy = PriorityLC
	a := Simulate(cfg)
	b := Simulate(cfg)
	if a != b {
		t.Fatal("same seed should reproduce identical results")
	}
	cfg.Seed = 43
	c := Simulate(cfg)
	if a == c {
		t.Fatal("different seed should differ")
	}
}

func TestSLOController(t *testing.T) {
	cfg := baseConfig()
	slo := 0.020 // 20ms p99
	rate, res := SLOController(cfg, slo, 8)
	if res.LCP99 > slo*1.2 {
		t.Fatalf("controller missed SLO: p99 = %v", res.LCP99)
	}
	if rate <= 0 {
		t.Fatal("controller chose a non-positive rate")
	}
	if res.BatchThroughput <= 0 {
		t.Fatal("controller starved batch entirely")
	}
}

func TestPolicyStrings(t *testing.T) {
	if SharedFIFO.String() != "shared-fifo" || PriorityLC.String() != "priority-lc" ||
		TokenBucket.String() != "token-bucket" {
		t.Fatal("policy strings wrong")
	}
}

// The live rate controller: violations halve the batch rate, comfortable
// headroom reclaims it gently, the dead band holds it steady, and the
// bounds always clamp.
func TestRateController(t *testing.T) {
	c := NewRateController(0.010, 100, 1, 200)
	if got := c.Decide(0.020).RateAfter; got != 50 {
		t.Fatalf("violating p99 should halve the rate: got %v", got)
	}
	if got := c.Decide(0.050).RateAfter; got != 25 {
		t.Fatalf("second violation: got %v, want 25", got)
	}
	// Dead band: between 0.7*SLO and SLO nothing moves.
	if got := c.Decide(0.009).RateAfter; got != 25 {
		t.Fatalf("dead band moved the rate: got %v", got)
	}
	// Headroom: reclaim 20%.
	if got := c.Decide(0.002).RateAfter; got != 30 {
		t.Fatalf("reclaim: got %v, want 30", got)
	}
	// No observation leaves the rate alone.
	if got := c.Decide(0).RateAfter; got != 30 {
		t.Fatalf("zero p99 moved the rate: got %v", got)
	}
	// Clamping: repeated reclaim saturates at Max, repeated violation at Min.
	for i := 0; i < 50; i++ {
		c.Decide(0.001)
	}
	if got := c.Rate(); got != 200 {
		t.Fatalf("rate should clamp at Max: got %v", got)
	}
	for i := 0; i < 50; i++ {
		c.Decide(1)
	}
	if got := c.Rate(); got != 1 {
		t.Fatalf("rate should clamp at Min: got %v", got)
	}
}

func TestRateControllerClampedConstruction(t *testing.T) {
	// min <= 0 defaults; max < min snaps to min; initial clamps into range.
	c := NewRateController(0.01, 500, 0, -1)
	if c.Min != 0.01 || c.Max != c.Min {
		t.Fatalf("bounds not normalized: min=%v max=%v", c.Min, c.Max)
	}
	if got := c.Rate(); got != c.Max {
		t.Fatalf("initial rate not clamped: %v", got)
	}
	// A controller with no SLO never moves.
	z := NewRateController(0, 10, 1, 100)
	if got := z.Decide(5).RateAfter; got != 10 {
		t.Fatalf("SLO-less controller moved the rate: %v", got)
	}
}
