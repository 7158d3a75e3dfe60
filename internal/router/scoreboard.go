package router

// The per-replica latency scoreboard behind latency-aware routing
// (ROADMAP item 3, after the shenfeng__proxies idiom: measure every
// proxy, prefer the fastest). Every exchange feeds it: a completed
// exchange contributes its latency, a chain attempt abandoned
// because a hedge beat it (or the per-attempt timer expired) contributes
// its elapsed time as a lower bound — without that, a replica whose
// every request is cut short by a winning hedge would keep a stale
// "fast" score forever. The scoreboard answers two questions on the
// request path:
//
//   - budget: the adaptive hedge delay for a primary attempt — an
//     EWMA-percentile estimate (mean + k·σ), clamped to a floor so warm
//     microsecond traffic does not hedge on scheduler noise. Until a
//     replica has hedgeWarmup samples there is no budget and no hedging.
//   - prefer: chain reordering — when the owner's score is demoteRatio
//     worse than its first successor's, and worse by more than the hedge
//     floor (and, once demoted, until it is back under recoverRatio or
//     the floor), the request goes successor-first
//     (placement falls back along the same PlaceK chain failover uses,
//     so cache locality degrades to the successor's tier instead of
//     scattering). Every canaryEvery-th such decision is a canary: the
//     owner still sees the request, so a healed replica's score recovers
//     instead of being frozen by its own demotion. A canary that may
//     duplicate work runs beside the request (Router.canary), so it costs
//     the caller nothing; any other goes owner-first.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
)

const (
	// hedgeWarmup is the sample count below which a replica's score is
	// not trusted: no budget, no hedging, no demotion.
	hedgeWarmup = 16
	// hedgeSigma sets the budget percentile: mean + 3σ sits near p99 for
	// roughly normal latency, so steady-state traffic almost never
	// hedges and a genuine straggler almost always does.
	hedgeSigma = 3.0
	// demoteRatio is how much worse (×) the owner's latency EWMA must be
	// than its successor's before requests route successor-first.
	demoteRatio = 8.0
	// recoverRatio is the bar a demoted owner must get back under before
	// requests route owner-first again. Without the gap, a straggler whose
	// score sits at the demotion bar flaps across it on its successor's
	// noise, and each flap sends a request owner-first on the
	// straggler's own runaway hedge budget.
	recoverRatio = 4.0
	// canaryEvery sends 1/canaryEvery of a demoted owner's traffic to it
	// as canaries: frequent enough to notice recovery within tens of
	// requests, rare enough to add no load worth the name.
	canaryEvery = 64
)

// DefaultHedgeFloor is the minimum hedge delay: below it, a backup fires
// on ordinary scheduling jitter and doubles warm-path load for nothing.
const DefaultHedgeFloor = time.Millisecond

// score is one replica's row: everything the router knows about it.
// Health accounting and the latency EWMA (seconds) share the row's one
// mutex; the counters every exchange or hedge touches are lock-free.
type score struct {
	mu          sync.Mutex
	ewma        *stats.EWMA
	consecFails int
	ejected     bool
	nextProbe   time.Time // when an ejected replica may next be probed
	failures    int64     // failures counted toward ejection
	ejections   int64

	// eng is the replica's engine when it is a bare in-process
	// EngineBackend, nil otherwise: an attempt on one is a plain call,
	// with no timer and no hedge (Router.attempt).
	eng       *serve.Engine
	requests  atomic.Int64 // entries shipped to the replica
	inflight  atomic.Int64
	hedges    atomic.Int64 // backups fired because this replica's primary attempt ran long
	hedgeWins atomic.Int64 // backups that answered before this replica's primary attempt
	canary    atomic.Int64 // demotion decisions, for canary scheduling
}

// scoreboard is the router's per-replica rows, in backend order.
type scoreboard struct {
	floor   time.Duration
	ceiling time.Duration
	scores  []score
	// demoted is prefer's state, one flag per (owner, successor) pair,
	// row-major: an owner's chains reach different successors, and one
	// pair's comparison says nothing about another's.
	demoted []atomic.Bool
}

func newScoreboard(n int, floor, ceiling time.Duration) *scoreboard {
	sb := &scoreboard{floor: floor, ceiling: ceiling, scores: make([]score, n), demoted: make([]atomic.Bool, n*n)}
	for i := range sb.scores {
		sb.scores[i].ewma = stats.NewEWMA(stats.DefaultEWMAAlpha)
	}
	return sb
}

// observe folds one attempt's wall time into the replica's score.
func (s *scoreboard) observe(b int, d time.Duration) {
	sc := &s.scores[b]
	sc.mu.Lock()
	sc.ewma.Observe(d.Seconds())
	sc.mu.Unlock()
}

// observeFloor folds an abandoned attempt's elapsed time in as a lower
// bound: it only ever raises the estimate. An attempt canceled after
// 5ms on a replica estimated at 50ms says nothing new — we already
// believed it takes at least that long — and folding it in as-is would
// drag a sick replica's score down toward the hedge delay, flapping it
// out of demotion while it is still slow.
func (s *scoreboard) observeFloor(b int, d time.Duration) {
	sc := &s.scores[b]
	sc.mu.Lock()
	if d.Seconds() > sc.ewma.Mean() {
		sc.ewma.Observe(d.Seconds())
	}
	sc.mu.Unlock()
}

// snapshot returns the replica's current latency estimate.
func (s *scoreboard) snapshot(b int) (mean, std float64, n int64) {
	sc := &s.scores[b]
	sc.mu.Lock()
	mean, std, n = sc.ewma.Mean(), sc.ewma.Std(), sc.ewma.N()
	sc.mu.Unlock()
	return
}

// budget derives the replica's adaptive hedge delay. ok is false while
// the score is still warming up — an untrusted estimate must not fire
// backups.
func (s *scoreboard) budget(b int) (time.Duration, bool) {
	mean, std, n := s.snapshot(b)
	if n < hedgeWarmup {
		return 0, false
	}
	d := time.Duration((mean + hedgeSigma*std) * float64(time.Second))
	if d < s.floor {
		d = s.floor
	}
	if d > s.ceiling {
		d = s.ceiling
	}
	return d, true
}

// hedgeDelay picks when a backup to hb should fire behind a primary
// attempt on b: normally b's own budget (hedge on the primary's p99),
// but when b is known sick relative to hb — the same bar demotion uses —
// the backup's budget instead. A sick primary the chain still tries
// first (its owner ejected, say) would otherwise inherit the straggler's
// runaway budget and fire its backup far too late to protect the
// request. ok is false while either side of the decision is still
// warming up.
func (s *scoreboard) hedgeDelay(b, hb int) (time.Duration, bool) {
	d, ok := s.budget(b)
	if !ok {
		return 0, false
	}
	mb, _, _ := s.snapshot(b)
	mh, _, nh := s.snapshot(hb)
	if nh >= hedgeWarmup && mb > demoteRatio*mh {
		if dh, ok := s.budget(hb); ok {
			return dh, true
		}
	}
	return d, true
}

// prefer reorders the first two chain positions in place when the owner
// is consistently slower than its successor (see the package comment on
// demotion and canaries). The chain is the walk's own per-request slice.
// A canary decision leaves it owner-first and reports canary.
func (s *scoreboard) prefer(chain []int) (canary bool) {
	if len(chain) < 2 {
		return false
	}
	ma, _, na := s.snapshot(chain[0])
	mb, _, nb := s.snapshot(chain[1])
	demoted := &s.demoted[chain[0]*len(s.scores)+chain[1]]
	was, bar := demoted.Load(), demoteRatio
	if was {
		bar = recoverRatio
	}
	// A gap under the hedge floor is scheduling noise, whatever its ratio:
	// microsecond replicas would otherwise demote each other on one GC
	// pause and hold it through the hysteresis.
	if na < hedgeWarmup || nb < hedgeWarmup || ma <= bar*mb || ma-mb <= s.floor.Seconds() {
		if was {
			demoted.Store(false)
		}
		return false
	}
	if !was {
		demoted.Store(true)
	}
	if s.scores[chain[0]].canary.Add(1)%canaryEvery == 0 {
		return true
	}
	chain[0], chain[1] = chain[1], chain[0]
	return false
}
