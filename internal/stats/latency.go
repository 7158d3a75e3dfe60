package stats

import (
	"fmt"
	"sync"
)

// LatencyRecorder is a concurrency-safe streaming latency tracker: Welford
// moments over every observation plus a bounded uniform reservoir for
// percentile queries, so a long-running server can report its own p50/p99
// with O(1) memory. The toolkit's tail-latency experiments (E3, E15) study
// exactly these statistics for warehouse-scale services; the serve
// subsystem uses this recorder to apply them to its own request stream.
type LatencyRecorder struct {
	mu        sync.Mutex
	sum       Summary
	reservoir []float64
	cap       int
	rng       *RNG
}

// NewLatencyRecorder returns a recorder whose percentile reservoir keeps at
// most capacity observations (uniform sampling beyond that). Capacity <= 0
// defaults to 4096. The seed drives reservoir replacement only — moments
// are exact regardless.
func NewLatencyRecorder(capacity int, seed uint64) *LatencyRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &LatencyRecorder{
		reservoir: make([]float64, 0, capacity),
		cap:       capacity,
		rng:       NewRNG(seed),
	}
}

// Observe records one latency observation (any unit; seconds by
// convention).
func (l *LatencyRecorder) Observe(x float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sum.Add(x)
	if len(l.reservoir) < l.cap {
		l.reservoir = append(l.reservoir, x)
		return
	}
	// Algorithm R: replace a random slot with probability cap/n.
	j := int(l.rng.Uint64() % uint64(l.sum.N()))
	if j < l.cap {
		l.reservoir[j] = x
	}
}

// LatencySnapshot is a point-in-time view of a recorder, or of a
// histogram (HistogramSnapshot.Latency). JSON tags let servers expose
// snapshots directly.
type LatencySnapshot struct {
	// Count is the total number of observations.
	Count int `json:"count"`
	// Mean is exact over all observations; so are Min and Max from a
	// recorder, while a histogram gives the outer edges of its lowest and
	// highest occupied buckets.
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	// P50, P95, P99, P999 are estimated from the recorder's reservoir
	// (exact while Count does not exceed its capacity), or read off the
	// histogram's buckets (within 10 % for the fine latency set).
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
}

// Snapshot returns current statistics. It is safe to call concurrently
// with Observe.
func (l *LatencyRecorder) Snapshot() LatencySnapshot {
	l.mu.Lock()
	xs := make([]float64, len(l.reservoir))
	copy(xs, l.reservoir)
	snap := LatencySnapshot{
		Count: l.sum.N(),
		Mean:  l.sum.Mean(),
		Min:   l.sum.Min(),
		Max:   l.sum.Max(),
	}
	l.mu.Unlock()

	if len(xs) > 0 {
		s := Sample{xs: xs}
		snap.P50 = s.Percentile(50)
		snap.P95 = s.Percentile(95)
		snap.P99 = s.Percentile(99)
		snap.P999 = s.Percentile(99.9)
	}
	return snap
}

// String renders the snapshot compactly.
func (s LatencySnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p99=%.4g min=%.4g max=%.4g",
		s.Count, s.Mean, s.P50, s.P99, s.Min, s.Max)
}
