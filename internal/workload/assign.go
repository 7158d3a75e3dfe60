package workload

// Request→assignment mapping: a trace's Zipf-drawn keys index a catalog
// of concrete work items (for the load subsystem, experiment+parameter
// variants), preserving the trace's popularity structure so downstream
// cache hit ratios are realistic — rank 1 (the hottest key) always maps
// to catalog entry 0, and traces drawn over exactly n keys map
// one-to-one.

// Assignments maps each request's key onto one of n catalog entries and
// returns the per-request entry indices, in trace order. Keys are Zipf
// popularity ranks in [1, nKeys] (see ZipfTrace), so rank 1 — the hottest
// — maps to entry 0 and entry i inherits the popularity of every rank
// congruent to i+1 mod n; when the trace was drawn over exactly n keys
// the mapping is one-to-one and the catalog sees the trace's exact Zipf
// mix. n <= 0 yields nil.
func (tr RequestTrace) Assignments(n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, len(tr))
	for i, rq := range tr {
		k := (rq.Key - 1) % n
		if k < 0 {
			k += n
		}
		out[i] = k
	}
	return out
}
