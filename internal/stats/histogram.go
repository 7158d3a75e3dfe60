package stats

import (
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// AtomicHistogram is a concurrency-safe striped bucket histogram: the one
// latency instrument of the serving stack. Observations land in one of a
// few cache-line-separated stripes, each a bucket array of atomic counters
// plus one sum word; a snapshot adds the stripes up. There is no separate
// count word — the count is the bucket total — so an Observe is two atomic
// adds and no lock, and every observation is in exactly one bucket of
// every later snapshot, which is what lets a window be the difference of
// two snapshots with nothing dropped. The stripe is picked from a value
// the caller already has: the observation's own low bits, or
// (ObserveDuration) whatever the caller passes — nothing is asked of the
// runtime.
//
// NewAtomicHistogram(nil) builds the fine latency set: integer-nanosecond
// buckets, 10 ns wide below 100 ns and log-linear above (35 per decade up
// to 10 s: steps of 0.1, 0.25 and 0.5 of the decade across [1, 2.5),
// [2.5, 5) and [5, 10)), no bucket wider than 10 % of its lower edge, and
// an integer nanosecond sum. Every DefaultLatencyBuckets bound is one of
// its edges, so the /metrics exposition is an exact Rebucket of it, and
// Quantile is within 10 % (or 10 ns) of the exact order statistic. Explicit
// bounds run through the same stripes and snapshots; their values may be
// in any unit, so their sum stays a float (a CAS loop — they are not on a
// hot path).
//
// Unlike LatencyRecorder's bounded reservoir — whose replacement
// probability decays to cap/n, freezing the percentile view once mature —
// the buckets stay exact forever (within bucket resolution) and merge
// across stripes, classes, scrapes and replicas by addition.
type AtomicHistogram struct {
	bounds []float64 // sorted, strictly increasing, finite upper bounds
	fine   bool      // the integer-nanosecond set: index by arithmetic, integer sum
	stride int       // words per stripe, a whole number of cache lines
	mask   uint64    // stripes - 1
	// words is stripes × stride: per stripe, word 0 is the sum (nanoseconds
	// when fine, float64 bits otherwise) and words 1..len(bounds)+1 the
	// buckets, the last of them +Inf.
	words []atomic.Uint64
}

// DefaultLatencyBuckets are the latency bucket upper bounds /metrics
// exposes, in seconds, 1µs through 10s — wide enough for a sub-2µs warm
// cache hit and a multi-second cold sweep point in the same exposition.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5,
		1, 2.5, 5, 10,
	}
}

const (
	fineLinearNs  = 100  // below this, buckets are fineLinearNs/10 wide
	fineDecades   = 8    // 100 ns .. 10 s
	finePerDecade = 35   // 15 + 10 + 10
	fineMaxNs     = 1e10 // the last finite edge
	fineBuckets   = 10 + fineDecades*finePerDecade

	// maxStripes caps the footprint: 16 stripes of the fine set are 37 KiB.
	maxStripes = 16
)

// fineBounds is the fine set's edges in seconds. float64(ns)/1e9 is the
// correctly rounded image of the integer edge, exactly what
// time.Duration.Seconds and a decimal literal give for the same instant,
// so float and integer comparisons against an edge agree.
var fineBounds = func() []float64 {
	out := make([]float64, 0, fineBuckets)
	for ns := int64(10); ns <= fineLinearNs; ns += 10 {
		out = append(out, float64(ns)/1e9)
	}
	for p := int64(fineLinearNs); p < fineMaxNs; p *= 10 {
		u := p / 20
		for q := int64(22); q <= 200; {
			out = append(out, float64(q*u)/1e9)
			switch {
			case q < 50:
				q += 2
			case q < 100:
				q += 5
			default:
				q += 10
			}
		}
	}
	return out
}()

// fineIndex is the bucket of a latency of ns nanoseconds: the first edge
// that is >= ns (upper bounds are inclusive), fineBuckets for +Inf.
func fineIndex(ns int64) int {
	if ns <= fineLinearNs {
		if ns < 1 {
			return 0
		}
		return int(ns-1) / 10
	}
	m := ns - 1
	if m >= fineMaxNs {
		return fineBuckets
	}
	d, p := 0, int64(fineLinearNs)
	for m >= 10*p {
		p *= 10
		d++
	}
	q := m / (p / 20) // 20..199: the mantissa in twentieths of the decade
	switch {
	case q < 50:
		q = (q - 20) / 2
	case q < 100:
		q = 15 + (q-50)/5
	default:
		q = 25 + (q-100)/10
	}
	return 10 + d*finePerDecade + int(q)
}

// NewAtomicHistogram builds a histogram over the given bucket upper bounds.
// Bounds must be finite; they are sorted and deduplicated. Nil or empty
// bounds build the fine latency set (observations in seconds, or
// ObserveDuration). The stripe count is fixed here from GOMAXPROCS.
func NewAtomicHistogram(bounds []float64) *AtomicHistogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		bs = append(bs, b)
	}
	sort.Float64s(bs)
	dedup := bs[:0]
	for i, b := range bs {
		if i == 0 || b != bs[i-1] {
			dedup = append(dedup, b)
		}
	}
	h := &AtomicHistogram{bounds: dedup}
	if len(dedup) == 0 {
		h.bounds, h.fine = fineBounds, true
	}
	stripes := 1
	for stripes < runtime.GOMAXPROCS(0) && stripes < maxStripes {
		stripes <<= 1
	}
	h.mask = uint64(stripes - 1)
	h.stride = (len(h.bounds) + 2 + 7) &^ 7
	h.words = make([]atomic.Uint64, stripes*h.stride)
	return h
}

// Observe records one observation in the bounds' unit (seconds for the
// fine set, which keeps it to the nanosecond). NaN observations are
// dropped (they would poison the sum and land in no bucket).
func (h *AtomicHistogram) Observe(x float64) {
	if math.IsNaN(x) {
		return
	}
	if h.fine {
		// Past ~11 days the value is only a +Inf-bucket entry; the clamp
		// keeps the conversion defined and the integer sum from wrapping.
		d := time.Duration(math.Min(x, 1e6)*1e9 + 0.5)
		h.ObserveDuration(d, uint64(d))
		return
	}
	// First bucket whose upper bound contains x; past the last bound
	// lands in the +Inf bucket.
	st := h.words[int(math.Float64bits(x)*0x9e3779b97f4a7c15>>32&h.mask)*h.stride:]
	st[1+sort.SearchFloat64s(h.bounds, x)].Add(1)
	for sum := &st[0]; ; {
		old := sum.Load()
		if sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// ObserveDuration records one latency: two atomic adds on the stripe
// lane's low bits pick. Any value will do — uint64(d) spreads well — but a
// caller that passes its processor's id (the engine does) keeps each
// stripe's cache lines on one core. Negative durations count as zero. On a
// histogram with explicit bounds it is Observe(d.Seconds()).
func (h *AtomicHistogram) ObserveDuration(d time.Duration, lane uint64) {
	if !h.fine {
		h.Observe(d.Seconds())
		return
	}
	ns := max(int64(d), 0)
	st := h.words[int(lane&h.mask)*h.stride:]
	st[1+fineIndex(ns)].Add(1)
	st[0].Add(uint64(ns))
}

// Count is the number of observations so far (the bucket total).
func (h *AtomicHistogram) Count() uint64 {
	var n uint64
	for s := 0; s < len(h.words); s += h.stride {
		for i := 1; i <= len(h.bounds)+1; i++ {
			n += h.words[s+i].Load()
		}
	}
	return n
}

// HistogramSnapshot is a point-in-time view: cumulative counts per
// bucket upper bound (the exposition's `le` series), plus count and sum.
// CumCounts is always monotonically non-decreasing and
// CumCounts[len-1] <= Count (the +Inf bucket holds the remainder).
// Snapshots over the same bounds add and subtract bucket by bucket: the
// zero value is the empty snapshot of any bounds.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds (seconds for latency).
	Bounds []float64 `json:"bounds"`
	// CumCounts[i] counts observations <= Bounds[i].
	CumCounts []uint64 `json:"cum_counts"`
	// Count is the bucket total, +Inf included; Sum the sum of the
	// observations.
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
}

// Snapshot returns the current cumulative view. It is safe to call
// concurrently with Observe.
func (h *AtomicHistogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	h.AddTo(&s)
	return s
}

// AddTo adds the histogram's current contents into s — how several
// histograms over the same bounds merge into one view (hit + cold, class
// by class) without an intermediate copy. Per-bucket reads are
// individually atomic and each observation is in exactly one bucket, so
// under racing Observes the view is monotone, Count is its own bucket
// total, and a later view never reads less in any bucket; only Sum can
// run one observation ahead of or behind the counts.
func (h *AtomicHistogram) AddTo(s *HistogramSnapshot) {
	s.like(h.bounds)
	var cum, sumNs uint64
	for i := range h.bounds {
		for o := 1 + i; o < len(h.words); o += h.stride {
			cum += h.words[o].Load()
		}
		s.CumCounts[i] += cum
	}
	for o := 0; o < len(h.words); o += h.stride {
		cum += h.words[o+1+len(h.bounds)].Load()
		if w := h.words[o].Load(); h.fine {
			sumNs += w
		} else {
			s.Sum += math.Float64frombits(w)
		}
	}
	s.Count += cum
	s.Sum += float64(sumNs) / 1e9
}

// like sizes an empty snapshot for bounds; a snapshot already holding
// other bounds cannot take them.
func (s *HistogramSnapshot) like(bounds []float64) {
	if s.CumCounts == nil {
		s.Bounds, s.CumCounts = bounds, make([]uint64, len(bounds))
	}
	if len(s.CumCounts) != len(bounds) {
		panic("stats: histogram snapshots over different bounds")
	}
}

// Reset empties the snapshot, keeping its storage.
func (s *HistogramSnapshot) Reset() {
	clear(s.CumCounts)
	s.Count, s.Sum = 0, 0
}

// Add merges o into s, in place.
func (s *HistogramSnapshot) Add(o HistogramSnapshot) {
	if o.CumCounts == nil {
		return
	}
	s.like(o.Bounds)
	for i, c := range o.CumCounts {
		s.CumCounts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Sub turns s, in place, into the window since prev — an earlier snapshot
// of the same histogram(s): the observations s has and prev has not.
func (s *HistogramSnapshot) Sub(prev HistogramSnapshot) {
	if prev.CumCounts == nil {
		return
	}
	s.like(prev.Bounds)
	for i, c := range prev.CumCounts {
		s.CumCounts[i] -= c
	}
	s.Count -= prev.Count
	s.Sum -= prev.Sum
}

// Rebucket returns the view over a coarser bound set. Each bound should be
// one of s.Bounds (every DefaultLatencyBuckets bound is an edge of the fine
// set), which makes the result exact; a bound between two edges reads as
// the edge below it.
func (s HistogramSnapshot) Rebucket(bounds []float64) HistogramSnapshot {
	out := HistogramSnapshot{Bounds: bounds, CumCounts: make([]uint64, len(bounds)), Count: s.Count, Sum: s.Sum}
	for i, b := range bounds {
		// The number of edges <= b, less one, is the last bucket b covers.
		if j := sort.Search(len(s.Bounds), func(j int) bool { return s.Bounds[j] > b }); j > 0 {
			out.CumCounts[i] = s.CumCounts[j-1]
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket holding rank q*Count: the result and the exact order
// statistic share a bucket, so for the fine set they differ by at most
// 10 % (10 ns below 100 ns). Quantile(0) and Quantile(1) are the outer
// edges of the lowest and highest occupied buckets; ranks in the +Inf
// bucket read as the last bound. An empty snapshot gives 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var prev uint64
	for i, c := range s.CumCounts {
		if c > prev && float64(c) >= rank {
			lo := math.Min(s.Bounds[0], 0)
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			frac := math.Max(rank-float64(prev), 0) / float64(c-prev)
			return lo + (s.Bounds[i]-lo)*frac
		}
		prev = c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Latency renders the snapshot in the LatencySnapshot shape servers
// expose: the mean is Sum/Count, everything else is bucket-resolution
// (see Quantile).
func (s HistogramSnapshot) Latency() LatencySnapshot {
	if s.Count == 0 {
		return LatencySnapshot{}
	}
	return LatencySnapshot{
		Count: int(s.Count),
		Mean:  s.Sum / float64(s.Count),
		Min:   s.Quantile(0),
		Max:   s.Quantile(1),
		P50:   s.Quantile(0.5),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		P999:  s.Quantile(0.999),
	}
}
