// Package admit is the serving stack's class-based admission scheduler —
// the live realization of the QoS policies internal/qos simulates ("how
// can applications express Quality-of-Service targets and have the
// underlying hardware ... ensure them?", §2.4). Work arrives in two
// classes — interactive (latency-critical /run traffic) and batch (sweep
// grid points) — and a bounded worker set serves them under a policy:
// strict priority for the interactive class plus a token-bucket throttle
// on batch admissions (the default), or a single shared FIFO (the no-QoS
// baseline the scheduler replaced, kept selectable so the inversion it
// removes stays demonstrable). Admission is deadline-aware: a request
// whose projected queue wait already exceeds its context deadline is shed
// immediately with a retry hint instead of occupying the queue, and a
// full interactive queue sheds (fail fast) while a full batch queue
// exerts backpressure (submitters block, holding no lock, so a stalled
// queue never wedges unrelated submitters). The request class rides the
// context.Context, so it propagates unchanged through the engine, the
// sweep fan-out, and the cluster router.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// Class is a request's service class.
type Class uint8

const (
	// Interactive is the latency-critical class: /run traffic a human is
	// waiting on. Served ahead of batch under StrictPriority; shed (fail
	// fast) when its queue is full.
	Interactive Class = iota
	// Batch is the throughput class: sweep grid points and other bulk
	// work. Throttled by the token bucket and backpressured (submitters
	// block) when its queue is full.
	Batch

	numClasses = 2
)

// Classes lists every class, in priority order. The docs-drift gate pins
// DESIGN.md §8 to exactly this list.
func Classes() []Class { return []Class{Interactive, Batch} }

// String names the class as it appears in headers, flags, and /stats.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass parses a class name (the X-Arch21-Class header and the
// loadtest -class flag). The empty string is Interactive — an unlabeled
// request is someone waiting.
func ParseClass(s string) (Class, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	}
	return Interactive, fmt.Errorf("admit: unknown class %q (want interactive or batch)", s)
}

// HeaderClass carries the request class across HTTP hops (front-end to
// replica), and HeaderDeadlineMS the remaining deadline budget in
// milliseconds — the front-end decrements it before forwarding so a
// routed replica honors the caller's remaining budget, not a fresh one.
const (
	HeaderClass      = "X-Arch21-Class"
	HeaderDeadlineMS = "X-Arch21-Deadline-MS"
)

type classKey struct{}

// WithClass tags a context with a request class.
func WithClass(ctx context.Context, c Class) context.Context {
	return context.WithValue(ctx, classKey{}, c)
}

// ClassFrom returns the context's class, defaulting to Interactive (an
// untagged request is someone waiting).
func ClassFrom(ctx context.Context) Class {
	c, _ := ClassFromContext(ctx)
	return c
}

// ClassFromContext returns the context's class and whether one was
// explicitly tagged — the sweep engine tags untagged contexts Batch
// without clobbering an explicit front-end label.
func ClassFromContext(ctx context.Context) (Class, bool) {
	if ctx == nil {
		return Interactive, false
	}
	if c, ok := ctx.Value(classKey{}).(Class); ok {
		return c, true
	}
	return Interactive, false
}

// Policy selects the scheduling discipline.
type Policy uint8

const (
	// StrictPriority serves interactive work ahead of batch
	// (non-preemptive) and throttles batch admissions through the token
	// bucket — the live counterpart of internal/qos's PriorityLC +
	// TokenBucket policies.
	StrictPriority Policy = iota
	// SharedFIFO runs everything through one queue in arrival order with
	// no throttle and no shedding — the no-QoS baseline (how serve.Pool
	// behaved before it was deleted), kept selectable so tests can
	// demonstrate the priority inversion the scheduler removes.
	SharedFIFO
)

// Policies lists every policy. The docs-drift gate pins DESIGN.md §8 to
// exactly this list.
func Policies() []Policy { return []Policy{StrictPriority, SharedFIFO} }

// String names the policy.
func (p Policy) String() string {
	switch p {
	case StrictPriority:
		return "strict-priority"
	case SharedFIFO:
		return "shared-fifo"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParsePolicy maps a policy name (as produced by Policy.String) back to
// the policy — the wire form POST /control retunes admission with.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if s == p.String() {
			return p, nil
		}
	}
	return StrictPriority, fmt.Errorf("admit: unknown policy %q (want strict-priority or shared-fifo)", s)
}

// ErrClosed is returned by Run after Close.
var ErrClosed = errors.New("admit: scheduler closed")

// ErrShed matches any ShedError via errors.Is.
var ErrShed = errors.New("admit: shed")

// ShedError reports a request rejected at admission: its class, why, and
// how long the scheduler projects the caller should wait before retrying
// (what an HTTP layer renders as Retry-After).
type ShedError struct {
	// Class is the shed request's class.
	Class Class
	// Deadline reports a deadline shed (the projected queue wait already
	// exceeded the request's context deadline) as opposed to a full
	// interactive queue.
	Deadline bool
	// RetryAfter is the projected wait a retry should allow for.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	why := "queue full"
	if e.Deadline {
		why = "projected wait exceeds request deadline"
	}
	return fmt.Sprintf("admit: %s request shed (%s; retry after %v)", e.Class, why, e.RetryAfter)
}

// Is reports ErrShed so callers can errors.Is(err, ErrShed) without
// unwrapping the struct.
func (e *ShedError) Is(target error) bool { return target == ErrShed }

// Config parameterizes a Scheduler.
type Config struct {
	// Workers bounds concurrently executing tasks (default 4).
	Workers int
	// Queue is the per-class queue depth (default 2*Workers).
	Queue int
	// Policy is the scheduling discipline (default StrictPriority).
	Policy Policy
	// BatchRate is the token-bucket rate in batch admissions/s; 0 leaves
	// batch unthrottled (priority ordering still applies). Tunable live
	// via SetBatchRate (the SLO feedback controller's knob).
	BatchRate float64
	// BatchBurst is the bucket depth (default max(1, Workers)).
	BatchBurst float64
}

func (c *Config) setDefaults() {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
	if c.BatchBurst < 1 {
		c.BatchBurst = math.Max(1, float64(c.Workers))
	}
}

// item is one queued task.
type item struct {
	class Class
	seq   uint64
	ctx   context.Context
	run   func() ([]byte, error)
	done  chan struct{}
	val   []byte
	err   error
}

// Scheduler is the class-based admission scheduler. All state is guarded
// by one mutex + condvar; no path holds the mutex across a blocking
// channel send or task execution, so a full queue can never stall
// unrelated submitters (the head-of-line bug the deleted serve.Pool had).
type Scheduler struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond

	queues [numClasses][]*item
	seq    uint64
	closed bool

	running int
	tokens  float64
	rate    float64
	refill  time.Time

	// svcEWMA is the per-class exponential moving average of observed
	// service times (seconds) — what projected-wait admission estimates
	// from. Zero until the class has completed a task.
	svcEWMA   [numClasses]float64
	submitted [numClasses]int64
	started   [numClasses]int64
	completed [numClasses]int64
	sheds     [numClasses]int64

	wg sync.WaitGroup
}

// NewScheduler starts a scheduler with cfg.Workers workers.
func NewScheduler(cfg Config) *Scheduler {
	cfg.setDefaults()
	s := &Scheduler{
		cfg:    cfg,
		tokens: cfg.BatchBurst,
		rate:   cfg.BatchRate,
		refill: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the concurrency bound.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

// Policy returns the scheduling discipline.
func (s *Scheduler) Policy() Policy {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.Policy
}

// SetPolicy switches the scheduling discipline live — the control
// channel's admission knob. Queued work is not reshuffled; the new
// discipline governs every dispatch decision from the next one on.
func (s *Scheduler) SetPolicy(p Policy) {
	s.mu.Lock()
	s.cfg.Policy = p
	s.mu.Unlock()
	s.cond.Broadcast()
}

// SetBatchRate retunes the token-bucket rate live (tokens accrued so far
// are kept; <= 0 removes the throttle). This is the knob the qos feedback
// controller turns to hold the interactive p99 at its SLO.
func (s *Scheduler) SetBatchRate(rate float64) {
	s.mu.Lock()
	s.refillLocked()
	if rate < 0 {
		rate = 0
	}
	s.rate = rate
	s.mu.Unlock()
	s.cond.Broadcast()
}

// BatchRate returns the current token-bucket rate (0 = unthrottled).
func (s *Scheduler) BatchRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rate
}

// Run submits task under ctx's class and blocks until it completes,
// returning its outcome. Admission may reject instead: a ShedError when
// the interactive queue is full or the projected wait exceeds ctx's
// deadline, ctx.Err() when ctx is done before the task starts, ErrClosed
// after Close. A task canceled while queued never runs.
func (s *Scheduler) Run(ctx context.Context, task func() ([]byte, error)) ([]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	class := ClassFrom(ctx)

	s.mu.Lock()
	s.submitted[class]++
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		s.sheds[class]++
		s.mu.Unlock()
		return nil, err
	}

	// Deadline-aware admission: a request that provably cannot be served
	// inside its deadline is shed now, with a retry hint, instead of
	// occupying queue space it will only be canceled out of. SharedFIFO
	// (the no-QoS baseline) never sheds.
	if dl, ok := ctx.Deadline(); ok && s.cfg.Policy != SharedFIFO {
		wait := s.projectedWaitLocked(class)
		if wait > 0 && time.Now().Add(wait).After(dl) {
			s.sheds[class]++
			s.mu.Unlock()
			return nil, &ShedError{Class: class, Deadline: true, RetryAfter: wait}
		}
	}

	// Queue-full: interactive sheds (fail fast — a waiting human should
	// get a 503 now, not a slow one later); batch blocks (backpressure
	// pacing producers to the scheduler). The wait releases the mutex, so
	// blocked batch submitters never stall anyone else. SharedFIFO blocks
	// both classes, like the pool it models.
	for len(s.queues[class]) >= s.cfg.Queue {
		if s.cfg.Policy != SharedFIFO && class == Interactive {
			wait := s.projectedWaitLocked(class)
			s.sheds[class]++
			s.mu.Unlock()
			return nil, &ShedError{Class: class, RetryAfter: wait}
		}
		stop := context.AfterFunc(ctx, func() {
			// Taking the mutex orders this broadcast after the Wait below
			// has parked, so the wakeup cannot be lost.
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		stop()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			s.sheds[class]++
			s.mu.Unlock()
			return nil, err
		}
	}

	it := &item{class: class, seq: s.seq, ctx: ctx, run: task, done: make(chan struct{})}
	s.seq++
	s.queues[class] = append(s.queues[class], it)
	s.mu.Unlock()
	s.cond.Broadcast()

	select {
	case <-it.done:
		return it.val, it.err
	case <-ctx.Done():
		// Withdraw from the queue if the task has not been dispatched;
		// otherwise it is running (or about to) and we take its outcome.
		s.mu.Lock()
		if s.removeLocked(it) {
			s.sheds[class]++
			s.mu.Unlock()
			s.cond.Broadcast() // queue space freed
			return nil, ctx.Err()
		}
		s.mu.Unlock()
		<-it.done
		return it.val, it.err
	}
}

// removeLocked withdraws a still-queued item; false means it was already
// dispatched (or shed by a worker).
func (s *Scheduler) removeLocked(it *item) bool {
	q := s.queues[it.class]
	for i, x := range q {
		if x == it {
			s.queues[it.class] = append(q[:i], q[i+1:]...)
			return true
		}
	}
	return false
}

// refillLocked accrues tokens since the last refill.
func (s *Scheduler) refillLocked() {
	now := time.Now()
	if s.rate > 0 {
		s.tokens = math.Min(s.cfg.BatchBurst, s.tokens+s.rate*now.Sub(s.refill).Seconds())
	} else {
		s.tokens = s.cfg.BatchBurst
	}
	s.refill = now
}

// projectedWaitLocked estimates how long a new request of class c would
// wait before starting: queued-ahead work at the class's observed service
// time spread over the workers, plus — for throttled batch — the token
// wait. Zero when the class has no service history yet (admit
// optimistically; the estimate sharpens as traffic flows).
func (s *Scheduler) projectedWaitLocked(c Class) time.Duration {
	svc := s.svcEWMA[c]
	if svc == 0 {
		svc = s.svcEWMA[1-c]
	}
	if svc == 0 {
		return 0
	}
	ahead := len(s.queues[c])
	if c == Batch {
		// Batch runs behind every queued interactive request too.
		ahead += len(s.queues[Interactive])
	}
	wait := svc * float64(ahead+1) / float64(s.cfg.Workers)
	if c == Batch && s.rate > 0 {
		// Refill first: after a batch-idle stretch nothing has touched
		// the bucket, and projecting from the stale (possibly empty)
		// count would shed requests a full bucket could serve instantly.
		s.refillLocked()
		need := float64(ahead+1) - s.tokens
		if tw := need / s.rate; tw > wait {
			wait = tw
		}
	}
	return time.Duration(wait * float64(time.Second))
}

// nextLocked pops the next dispatchable item under the policy, consuming
// a token for throttled batch work. Nil means nothing is dispatchable
// right now (empty queues, or batch gated on tokens — tokenWaitLocked
// tells the worker how long until that changes). Draining after Close
// ignores the throttle: queued work finishes promptly.
func (s *Scheduler) nextLocked() *item {
	if s.cfg.Policy == SharedFIFO {
		var best *item
		bc := Interactive
		for c := Class(0); c < numClasses; c++ {
			if q := s.queues[c]; len(q) > 0 && (best == nil || q[0].seq < best.seq) {
				best, bc = q[0], c
			}
		}
		if best != nil {
			s.queues[bc] = s.queues[bc][1:]
		}
		return best
	}
	if q := s.queues[Interactive]; len(q) > 0 {
		s.queues[Interactive] = q[1:]
		return q[0]
	}
	if q := s.queues[Batch]; len(q) > 0 {
		if s.rate > 0 && !s.closed {
			s.refillLocked()
			if s.tokens < 1 {
				return nil
			}
			s.tokens--
		}
		s.queues[Batch] = q[1:]
		return q[0]
	}
	return nil
}

// tokenWaitLocked reports how long until the bucket holds a whole token,
// when batch work is queued behind the throttle.
func (s *Scheduler) tokenWaitLocked() (time.Duration, bool) {
	if s.cfg.Policy == SharedFIFO || s.rate <= 0 || len(s.queues[Batch]) == 0 || s.closed {
		return 0, false
	}
	s.refillLocked()
	if s.tokens >= 1 {
		return 0, false
	}
	d := time.Duration((1 - s.tokens) / s.rate * float64(time.Second))
	if d < time.Millisecond {
		d = time.Millisecond // floor: never spin on sub-ms refills
	}
	return d, true
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		it := s.nextLocked()
		if it == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if d, ok := s.tokenWaitLocked(); ok {
				s.timedWaitLocked(d)
			} else {
				s.cond.Wait()
			}
			continue
		}
		if err := it.ctx.Err(); err != nil {
			// Canceled while queued: never run it. The submitter may have
			// withdrawn already (then it is not here), but a worker can
			// reach it first.
			s.sheds[it.class]++
			it.err = err
			close(it.done)
			s.cond.Broadcast() // queue space freed
			continue
		}
		s.started[it.class]++
		s.running++
		s.mu.Unlock()
		s.cond.Broadcast() // queue space freed: wake blocked batch submitters

		t0 := time.Now()
		it.val, it.err = runTask(it.run)
		dur := time.Since(t0).Seconds()
		close(it.done)

		s.mu.Lock()
		s.running--
		s.completed[it.class]++
		const alpha = 0.2
		if s.svcEWMA[it.class] == 0 {
			s.svcEWMA[it.class] = dur
		} else {
			s.svcEWMA[it.class] = (1-alpha)*s.svcEWMA[it.class] + alpha*dur
		}
	}
}

// runTask executes a submitted task, converting a panic into an error.
// A panic on a worker goroutine would otherwise kill the whole process
// — and it.done would never close, wedging the submitter forever.
func runTask(run func() ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("admit: task panicked: %v", r)
		}
	}()
	return run()
}

// timedWaitLocked waits on the condvar, waking after at most d (the next
// token refill) even if nothing broadcasts.
func (s *Scheduler) timedWaitLocked(d time.Duration) {
	t := time.AfterFunc(d, func() {
		// Taking the mutex orders this broadcast after the Wait below has
		// parked, so the wakeup cannot be lost.
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.cond.Wait()
	t.Stop()
}

// Close stops admissions and waits for queued work to drain (the batch
// throttle is lifted for the drain). Blocked submitters return ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// ClassStats is one class's scheduler accounting.
type ClassStats struct {
	// Submitted counts Run calls; Started tasks dispatched to a worker;
	// Completed tasks finished; Sheds admissions rejected (full
	// interactive queue, deadline, or cancellation before start).
	Submitted int64 `json:"submitted"`
	Started   int64 `json:"started"`
	Completed int64 `json:"completed"`
	Sheds     int64 `json:"sheds"`
	// Queued is the current queue depth (a gauge).
	Queued int `json:"queued"`
	// AvgServiceSeconds is the service-time EWMA admission projects from.
	AvgServiceSeconds float64 `json:"avg_service_seconds"`
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	// Workers is the concurrency bound; Running how many are busy now.
	Workers int `json:"workers"`
	Running int `json:"running"`
	// Policy is the discipline name.
	Policy string `json:"policy"`
	// BatchRate is the current token-bucket rate (0 = unthrottled);
	// BatchTokens the bucket's current fill.
	BatchRate   float64 `json:"batch_rate"`
	BatchTokens float64 `json:"batch_tokens"`
	// Classes is per-class accounting keyed by class name.
	Classes map[string]ClassStats `json:"classes"`
}

// Stats returns current counters and queue depths.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:     s.cfg.Workers,
		Running:     s.running,
		Policy:      s.cfg.Policy.String(),
		BatchRate:   s.rate,
		BatchTokens: s.tokens,
		Classes:     make(map[string]ClassStats, numClasses),
	}
	for _, c := range Classes() {
		st.Classes[c.String()] = ClassStats{
			Submitted:         s.submitted[c],
			Started:           s.started[c],
			Completed:         s.completed[c],
			Sheds:             s.sheds[c],
			Queued:            len(s.queues[c]),
			AvgServiceSeconds: s.svcEWMA[c],
		}
	}
	return st
}
