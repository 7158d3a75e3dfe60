package cluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/stats"
)

// Sharder maps keys to servers. The paper's data-center direction asks for
// "reasoning about locality and enforcing efficient locality properties in
// data center systems" (§2.1); placement policy is the first-order lever,
// and imbalance feeds straight into the tail results of E3 (the hottest
// shard sets the join latency).
type Sharder interface {
	// Place returns the server index in [0, Servers()) for a key.
	Place(key uint64) int
	// Servers returns the server count.
	Servers() int
}

// ModuloSharder is the naive key%N placement: perfectly balanced for
// uniform keys, but resharding on N→N+1 moves almost every key.
type ModuloSharder struct{ N int }

// Place implements Sharder.
func (m ModuloSharder) Place(key uint64) int { return int(key % uint64(m.N)) }

// Servers implements Sharder.
func (m ModuloSharder) Servers() int { return m.N }

// ConsistentHash implements consistent hashing with virtual nodes: each
// server owns VNodes points on a hash ring; a key belongs to the first
// point clockwise. Adding a server moves only ~1/N of keys.
type ConsistentHash struct {
	n      int
	points []ringPoint
}

type ringPoint struct {
	hash   uint64
	server int
}

// NewConsistentHash builds a ring for n servers with vnodes points each.
func NewConsistentHash(n, vnodes int) *ConsistentHash {
	if n < 1 || vnodes < 1 {
		panic("cluster: need n >= 1 and vnodes >= 1")
	}
	ch := &ConsistentHash{n: n}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodes; v++ {
			ch.points = append(ch.points, ringPoint{
				hash:   splitmix(uint64(s)<<32 | uint64(v)),
				server: s,
			})
		}
	}
	sort.Slice(ch.points, func(i, j int) bool { return ch.points[i].hash < ch.points[j].hash })
	return ch
}

// HashString hashes a string key (FNV-1a) into the uint64 key space the
// sharders place — the one place routing callers get their ring keys
// from, so every consumer of a ring agrees on placement by construction.
func HashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// splitmix is the same SplitMix64 finalizer the stats package uses, inlined
// so ring geometry is independent of RNG stream state.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Place implements Sharder.
func (ch *ConsistentHash) Place(key uint64) int {
	h := splitmix(key)
	i := sort.Search(len(ch.points), func(i int) bool { return ch.points[i].hash >= h })
	if i == len(ch.points) {
		i = 0
	}
	return ch.points[i].server
}

// Servers implements Sharder.
func (ch *ConsistentHash) Servers() int { return ch.n }

// PlaceK appends up to k distinct servers for a key to dst and returns
// the extended slice, in ring order starting at the key's owner: the
// first appended element is Place(key), the next the next distinct server
// clockwise, and so on. This is the failover chain a router walks when
// the owner is unhealthy — successive ring positions, so every router
// instance agrees on the retry order without coordination. k is clamped
// to the server count. With cap(dst)-len(dst) >= k it allocates nothing:
// distinctness is a scan of the entries already appended (k is a handful).
func (ch *ConsistentHash) PlaceK(dst []int, key uint64, k int) []int {
	if k > ch.n {
		k = ch.n
	}
	if k < 1 {
		return dst
	}
	h := splitmix(key)
	start := sort.Search(len(ch.points), func(i int) bool { return ch.points[i].hash >= h })
	base := len(dst)
	for i := 0; i < len(ch.points) && len(dst)-base < k; i++ {
		if p := ch.points[(start+i)%len(ch.points)]; !slices.Contains(dst[base:], p.server) {
			dst = append(dst, p.server)
		}
	}
	return dst
}

// LoadStats reports placement balance for a key workload.
type LoadStats struct {
	// MaxOverMean is the hottest server's load over the mean (1.0 =
	// perfect balance); this factor multiplies the per-leaf latency the
	// fork-join tail sees.
	MaxOverMean float64
	// PerServer is the per-server key (or weight) totals.
	PerServer []float64
}

// MeasureLoad places nKeys Zipf-weighted keys (skew s; s=0 for uniform
// weights) and reports balance.
func MeasureLoad(sh Sharder, nKeys int, skew float64, r *stats.RNG) LoadStats {
	load := make([]float64, sh.Servers())
	var z *stats.Zipf
	if skew > 0 {
		z = stats.NewZipf(nKeys, skew)
	}
	for k := 0; k < nKeys; k++ {
		w := 1.0
		if z != nil {
			w = z.Prob(k+1) * float64(nKeys)
		}
		// Random key identity (stable per index) decouples popularity
		// rank from ring position.
		key := splitmix(uint64(k) * 0x9e3779b97f4a7c15)
		load[sh.Place(key)] += w
	}
	_ = r
	mean := 0.0
	for _, l := range load {
		mean += l
	}
	mean /= float64(len(load))
	maxL := 0.0
	for _, l := range load {
		if l > maxL {
			maxL = l
		}
	}
	st := LoadStats{PerServer: load}
	if mean > 0 {
		st.MaxOverMean = maxL / mean
	}
	return st
}

// MovedFraction returns the fraction of nKeys whose placement changes when
// going from sharder a to sharder b — the resharding cost of scaling out.
func MovedFraction(a, b Sharder, nKeys int) float64 {
	moved := 0
	for k := 0; k < nKeys; k++ {
		key := splitmix(uint64(k) * 0x9e3779b97f4a7c15)
		if a.Place(key) != b.Place(key) {
			moved++
		}
	}
	return float64(moved) / float64(nKeys)
}

func (s LoadStats) String() string {
	return fmt.Sprintf("max/mean=%.3f over %d servers", s.MaxOverMean, len(s.PerServer))
}
