// Package qos simulates colocated latency-critical and batch workloads
// sharing one resource, and the QoS mechanisms the paper calls for
// ("how can applications express Quality-of-Service targets and have the
// underlying hardware ... ensure them?", §2.4): shared FIFO (no QoS),
// strict priority for the latency-critical class, and token-bucket
// throttling of the batch class, plus a feedback controller that tunes the
// bucket rate to an SLO.
package qos

import (
	"math"

	"repro/internal/des"
	"repro/internal/stats"
)

// Policy selects the resource-sharing discipline.
type Policy int

// The implemented policies.
const (
	// SharedFIFO runs everything through one queue — the no-QoS baseline.
	SharedFIFO Policy = iota
	// PriorityLC serves latency-critical requests ahead of batch work
	// (non-preemptive).
	PriorityLC
	// TokenBucket throttles batch admissions to a configured rate.
	TokenBucket
)

func (p Policy) String() string {
	switch p {
	case SharedFIFO:
		return "shared-fifo"
	case PriorityLC:
		return "priority-lc"
	default:
		return "token-bucket"
	}
}

// Config parameterizes one colocation simulation.
type Config struct {
	// LCRate is latency-critical arrival rate (req/s).
	LCRate float64
	// LCService is the LC service-time distribution (seconds).
	LCService stats.Dist
	// BatchOutstanding is the closed-loop batch depth (jobs always ready).
	BatchOutstanding int
	// BatchService is the batch service-time distribution (seconds).
	BatchService stats.Dist
	// Duration is simulated seconds.
	Duration float64
	// Policy is the sharing discipline.
	Policy Policy
	// BucketRate is max batch admissions/s under TokenBucket.
	BucketRate float64
	// BucketDepth is the token bucket burst capacity.
	BucketDepth float64
	// Seed drives all randomness.
	Seed uint64
}

// Result summarizes one run.
type Result struct {
	// LCP50 and LCP99 are latency-critical response times (s).
	LCP50, LCP99 float64
	// LCCompleted counts finished LC requests.
	LCCompleted int
	// BatchThroughput is batch completions/s.
	BatchThroughput float64
	// Utilization is the server's busy fraction.
	Utilization float64
}

type job struct {
	arrival float64
	service float64
	lc      bool
}

// Simulate runs the colocation scenario.
func Simulate(cfg Config) Result {
	if cfg.Policy == TokenBucket && cfg.BucketDepth < 1 {
		cfg.BucketDepth = 1 // a zero-depth bucket would starve batch forever
	}
	sim := des.New()
	rng := stats.NewRNG(cfg.Seed)
	lcLat := stats.NewSample(4096)
	batchDone := 0
	busyUntil := 0.0
	busyIntegral := 0.0
	busy := false
	var lcQ, batchQ []job

	// Token bucket state.
	tokens := cfg.BucketDepth
	lastRefill := 0.0
	refill := func() {
		if cfg.Policy != TokenBucket {
			return
		}
		now := sim.Now()
		tokens = math.Min(cfg.BucketDepth, tokens+cfg.BucketRate*(now-lastRefill))
		lastRefill = now
	}

	var startNext func()
	complete := func(j job) {
		busy = false
		busyIntegral += j.service
		if j.lc {
			lcLat.Add(sim.Now() - j.arrival)
		} else {
			batchDone++
			// Closed loop: next batch job becomes ready immediately.
			submitBatch(sim, cfg, rng, &batchQ, refill, &tokens, startNext)
		}
		startNext()
	}
	start := func(j job) {
		busy = true
		busyUntil = sim.Now() + j.service
		_ = busyUntil
		sim.Schedule(j.service, func() { complete(j) })
	}
	startNext = func() {
		if busy || sim.Now() >= cfg.Duration {
			return
		}
		switch cfg.Policy {
		case PriorityLC:
			if len(lcQ) > 0 {
				j := lcQ[0]
				lcQ = lcQ[1:]
				start(j)
				return
			}
			if len(batchQ) > 0 {
				j := batchQ[0]
				batchQ = batchQ[1:]
				start(j)
			}
		default:
			// Single FIFO across classes: pick the earlier arrival.
			switch {
			case len(lcQ) > 0 && (len(batchQ) == 0 || lcQ[0].arrival <= batchQ[0].arrival):
				j := lcQ[0]
				lcQ = lcQ[1:]
				start(j)
			case len(batchQ) > 0:
				j := batchQ[0]
				batchQ = batchQ[1:]
				start(j)
			}
		}
	}

	// LC arrival process.
	interarrival := stats.Exponential{Rate: cfg.LCRate}
	var scheduleLC func()
	scheduleLC = func() {
		dt := interarrival.Sample(rng)
		if sim.Now()+dt >= cfg.Duration {
			return
		}
		sim.Schedule(dt, func() {
			svc := cfg.LCService.Sample(rng)
			lcQ = append(lcQ, job{arrival: sim.Now(), service: svc, lc: true})
			startNext()
			scheduleLC()
		})
	}
	scheduleLC()

	// Seed the closed-loop batch population.
	for i := 0; i < cfg.BatchOutstanding; i++ {
		submitBatch(sim, cfg, rng, &batchQ, refill, &tokens, startNext)
	}
	sim.RunUntil(cfg.Duration)

	res := Result{
		LCP50:       lcLat.Percentile(50),
		LCP99:       lcLat.Percentile(99),
		LCCompleted: lcLat.N(),
	}
	if cfg.Duration > 0 {
		res.BatchThroughput = float64(batchDone) / cfg.Duration
		res.Utilization = busyIntegral / cfg.Duration
	}
	return res
}

// submitBatch admits one batch job, delayed by token availability under
// TokenBucket.
func submitBatch(sim *des.Sim, cfg Config, rng *stats.RNG, batchQ *[]job,
	refill func(), tokens *float64, startNext func()) {
	admit := func() {
		svc := cfg.BatchService.Sample(rng)
		*batchQ = append(*batchQ, job{arrival: sim.Now(), service: svc})
		startNext()
	}
	if cfg.Policy != TokenBucket {
		admit()
		return
	}
	var try func()
	try = func() {
		refill()
		if *tokens >= 1-1e-9 {
			*tokens = math.Max(0, *tokens-1)
			admit()
			return
		}
		// Floor the wait so float rounding can never produce a zero-delay
		// self-rescheduling loop.
		wait := math.Max((1-*tokens)/cfg.BucketRate, 1e-6)
		if sim.Now()+wait >= cfg.Duration {
			return
		}
		sim.Schedule(wait, try)
	}
	try()
}

// SLOController tunes the token-bucket rate by bisection until the LC p99
// meets the SLO (or the rate floor is hit). It returns the chosen rate and
// the final result, reproducing the "coordinated resource management"
// loop of §2.4.
func SLOController(cfg Config, sloP99 float64, iters int) (float64, Result) {
	lo, hi := 0.01, 1/meanOf(cfg.BatchService) // up to full batch saturation
	best := lo
	var bestRes Result
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		c := cfg
		c.Policy = TokenBucket
		c.BucketRate = mid
		res := Simulate(c)
		if res.LCP99 <= sloP99 {
			best, bestRes = mid, res
			lo = mid // can afford more batch
		} else {
			hi = mid
		}
	}
	if bestRes.LCCompleted == 0 {
		c := cfg
		c.Policy = TokenBucket
		c.BucketRate = best
		bestRes = Simulate(c)
	}
	return best, bestRes
}

func meanOf(d stats.Dist) float64 {
	m := d.Mean()
	if m <= 0 || math.IsInf(m, 0) || math.IsNaN(m) {
		return 1
	}
	return m
}

// RateController is the live counterpart of SLOController: instead of
// bisecting a simulation, it walks the serving stack's real batch
// token-bucket rate toward the highest value that still holds the
// latency-critical p99 at the SLO. Multiplicative decrease on violation
// (get safe fast), gentle multiplicative increase well inside the SLO
// (reclaim batch throughput slowly), a dead band in between so the rate
// does not oscillate on noise. Deterministic and clock-free: callers
// feed it observed p99s (e.g. the engine's interactive-class snapshot
// every second) and apply the returned rate via Engine.SetBatchRate.
type RateController struct {
	// SLO is the target p99 in seconds.
	SLO float64
	// Min and Max clamp the rate (Min > 0 keeps batch from starving
	// forever; Max bounds the reclaim).
	Min, Max float64

	rate float64
}

// NewRateController starts a controller at the initial rate, clamped to
// [min, max].
func NewRateController(slo, initial, min, max float64) *RateController {
	if min <= 0 {
		min = 0.01
	}
	if max < min {
		max = min
	}
	c := &RateController{SLO: slo, Min: min, Max: max, rate: initial}
	c.rate = c.clamp(initial)
	return c
}

// Rate returns the current batch rate.
func (c *RateController) Rate() float64 { return c.rate }

func (c *RateController) clamp(r float64) float64 {
	return math.Min(c.Max, math.Max(c.Min, r))
}
