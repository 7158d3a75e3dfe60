// Package admit is the serving stack's class-based admission scheduler —
// the live realization of the QoS policies internal/qos simulates ("how
// can applications express Quality-of-Service targets and have the
// underlying hardware ... ensure them?", §2.4). Work arrives in two
// classes — interactive (latency-critical /run traffic) and batch (sweep
// grid points) — and a bounded number of slots is granted to it under one
// discipline: strict priority for the interactive class plus a
// token-bucket throttle on batch admissions. (The no-QoS shared FIFO it
// replaced lives on only in internal/qos, where E15 compares the two.)
// Admission is deadline-aware: a request
// whose projected queue wait already exceeds its context deadline is shed
// immediately with a retry hint instead of occupying the queue, and a
// full interactive queue sheds (fail fast) while a full batch queue
// exerts backpressure (submitters block, holding no lock, so a stalled
// queue never wedges unrelated submitters). The scheduler owns no
// goroutines: a granted task runs on the goroutine that submitted it, and
// a finishing task grants its slot to the next queued submission. The
// request class rides the context.Context, so it propagates unchanged
// through the engine, the sweep fan-out, and the cluster router.
package admit

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"
)

// Class is a request's service class.
type Class uint8

const (
	// Interactive is the latency-critical class: /run traffic a human is
	// waiting on. Served ahead of batch; shed (fail fast) when its queue
	// is full.
	Interactive Class = iota
	// Batch is the throughput class: sweep grid points and other bulk
	// work. Throttled by the token bucket and backpressured (submitters
	// block) when its queue is full.
	Batch

	numClasses = 2
)

// Classes lists every class, in priority order. `make docs-check` fails
// when DESIGN.md §8 misses one.
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
	// BatchRate is the token-bucket rate in batch admissions/s; 0 leaves
	// batch unthrottled (priority ordering still applies). Tunable live
	// via SetBatchRate (the SLO feedback controller's knob). The bucket
	// holds one token per worker.
	BatchRate float64
}

func (c *Config) setDefaults() {
	if c.Workers < 1 {
		c.Workers = 4
	}
	if c.Queue <= 0 {
		c.Queue = 2 * c.Workers
	}
}

// item is one queued submission. grantLocked sets granted when it leaves
// the queue holding a slot, or err if it was canceled while queued; ready,
// made only when its submitter has to wait, is closed then.
type item struct {
	class   Class
	ctx     context.Context
	granted bool
	err     error
	ready   chan struct{}
}

// Scheduler is the class-based admission scheduler. It owns no
// goroutines: Workers() counts slots, and a granted task runs on its
// submitter's goroutine. grantLocked hands out every slot — to a
// submission at once when one is free, by a finishing task to the next
// queued one, by the token timer. One mutex guards all state and is never
// held across a wait or a task, so a full queue cannot stall unrelated
// submitters (the head-of-line bug the deleted serve.Pool had).
type Scheduler struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond // wakes blocked batch submitters and a draining Close

	queues [numClasses][]*item
	closed bool

	running int
	tokens  float64
	rate    float64
	refill  time.Time
	// tokenTimer re-runs grantLocked once throttled batch work has a token.
	tokenTimer *time.Timer

	// svcEWMA is the per-class exponential moving average of observed
	// service times (seconds) — what projected-wait admission estimates
	// from. Zero until the class has completed a task.
	svcEWMA   [numClasses]float64
	submitted [numClasses]int64
	started   [numClasses]int64
	completed [numClasses]int64
	sheds     [numClasses]int64
}

// NewScheduler builds a scheduler with cfg.Workers slots.
func NewScheduler(cfg Config) *Scheduler {
	cfg.setDefaults()
	s := &Scheduler{
		cfg:    cfg,
		tokens: float64(cfg.Workers),
		rate:   cfg.BatchRate,
		refill: time.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers returns the concurrency bound.
func (s *Scheduler) Workers() int { return s.cfg.Workers }

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
	s.grantLocked()
	s.mu.Unlock()
}

// BatchRate returns the current token-bucket rate (0 = unthrottled).
func (s *Scheduler) BatchRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rate
}

// Run submits task under ctx's class, runs it on the calling goroutine
// once it is granted a slot, and returns its outcome. Admission may
// reject instead: a ShedError when the interactive queue is full or the
// projected wait exceeds ctx's deadline, ctx.Err() when ctx is done before
// the task starts, ErrClosed after Close. A task canceled while queued
// never runs.
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
		return s.shedLocked(class, err)
	}

	// Deadline-aware admission: a request that provably cannot be served
	// inside its deadline is shed now, with a retry hint, instead of
	// occupying queue space it will only be canceled out of.
	if dl, ok := ctx.Deadline(); ok {
		wait := s.projectedWaitLocked(class)
		if wait > 0 && time.Now().Add(wait).After(dl) {
			return s.shedLocked(class, &ShedError{Class: class, Deadline: true, RetryAfter: wait})
		}
	}

	// Queue-full: interactive sheds (fail fast — a waiting human should
	// get a 503 now, not a slow one later); batch blocks (backpressure
	// pacing producers to the scheduler). The wait releases the mutex, so
	// blocked batch submitters never stall anyone else.
	for len(s.queues[class]) >= s.cfg.Queue {
		if class == Interactive {
			return s.shedLocked(class, &ShedError{Class: class, RetryAfter: s.projectedWaitLocked(class)})
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
			return s.shedLocked(class, err)
		}
	}

	it := &item{class: class, ctx: ctx}
	s.queues[class] = append(s.queues[class], it)
	s.grantLocked()
	if !it.granted {
		it.ready = make(chan struct{})
	}
	s.mu.Unlock()

	if it.ready != nil {
		select {
		case <-it.ready:
		case <-ctx.Done():
			// Withdraw if not granted yet; a granted item goes on below.
			s.mu.Lock()
			if i := slices.Index(s.queues[class], it); i >= 0 {
				s.queues[class] = slices.Delete(s.queues[class], i, i+1)
				s.cond.Broadcast() // queue space freed
				return s.shedLocked(class, ctx.Err())
			}
			s.mu.Unlock()
		}
	}
	if it.err != nil {
		return nil, it.err
	}
	t0 := time.Now()
	val, err := runTask(task)
	dur := time.Since(t0).Seconds()

	s.mu.Lock()
	s.running--
	s.completed[class]++
	const alpha = 0.2
	if s.svcEWMA[class] == 0 {
		s.svcEWMA[class] = dur
	} else {
		s.svcEWMA[class] = (1-alpha)*s.svcEWMA[class] + alpha*dur
	}
	s.grantLocked() // the slot goes to the next queued submission
	s.mu.Unlock()
	return val, err
}

// shedLocked books a submission turned away before it ran, releases the
// mutex and returns err as Run's outcome.
func (s *Scheduler) shedLocked(c Class, err error) ([]byte, error) {
	s.sheds[c]++
	s.mu.Unlock()
	return nil, err
}

// grantLocked hands free slots to queued submissions in priority order; one
// canceled while queued is shed and never runs.
func (s *Scheduler) grantLocked() {
	for s.running < s.cfg.Workers {
		it := s.nextLocked()
		if it == nil {
			break
		}
		it.granted = true
		if err := it.ctx.Err(); err != nil {
			s.sheds[it.class]++
			it.err = err
		} else {
			s.started[it.class]++
			s.running++
		}
		if it.ready != nil {
			close(it.ready)
		}
	}
	s.cond.Broadcast() // for blocked batch submitters and a draining Close
	if s.running < s.cfg.Workers && len(s.queues[Batch]) > 0 {
		// Only the bucket holds batch work back from a free slot: run this
		// pass again once a whole token has accrued (never within 1ms).
		d := max(time.Duration((1-s.tokens)/s.rate*float64(time.Second)), time.Millisecond)
		if s.tokenTimer == nil {
			s.tokenTimer = time.AfterFunc(d, func() {
				s.mu.Lock()
				s.grantLocked()
				s.mu.Unlock()
			})
		} else {
			s.tokenTimer.Reset(d)
		}
	}
}

// refillLocked accrues tokens since the last refill.
func (s *Scheduler) refillLocked() {
	now := time.Now()
	if s.rate > 0 {
		s.tokens = math.Min(float64(s.cfg.Workers), s.tokens+s.rate*now.Sub(s.refill).Seconds())
	} else {
		s.tokens = float64(s.cfg.Workers)
	}
	s.refill = now
}

// projectedWaitLocked estimates how long a new request of class c would
// wait before starting: queued-ahead work at the class's observed service
// time spread over the slots, plus — for throttled batch — the token
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

// nextLocked pops the next grantable item — interactive first, then
// batch — consuming a token for throttled batch work. Nil means nothing is
// grantable right now: empty queues, or batch gated on tokens. Draining
// after Close ignores the throttle: queued work finishes promptly.
func (s *Scheduler) nextLocked() *item {
	if len(s.queues[Interactive]) > 0 {
		return s.popLocked(Interactive)
	}
	if len(s.queues[Batch]) > 0 {
		if s.rate > 0 && !s.closed {
			s.refillLocked()
			if s.tokens < 1 {
				return nil
			}
			s.tokens--
		}
		return s.popLocked(Batch)
	}
	return nil
}

// popLocked removes and returns the head of class c's queue, shifting the
// rest down so the backing array keeps its capacity and the next append
// does not reallocate (a queue holds at most Queue items).
func (s *Scheduler) popLocked(c Class) *item {
	q := s.queues[c]
	it := q[0]
	n := copy(q, q[1:])
	q[n] = nil
	s.queues[c] = q[:n]
	return it
}

// runTask executes a task, converting a panic into an error: a panicking
// task fails its own Run and still returns its slot.
func runTask(run func() ([]byte, error)) (val []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("admit: task panicked: %v", r)
		}
	}()
	return run()
}

// Close stops admissions and waits for queued and running work to drain
// (the batch throttle is lifted for the drain). Blocked submitters return
// ErrClosed.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		s.grantLocked() // also wakes blocked submitters: they return ErrClosed
	}
	for s.running > 0 || len(s.queues[Interactive])+len(s.queues[Batch]) > 0 {
		s.cond.Wait()
	}
	if s.tokenTimer != nil {
		s.tokenTimer.Stop()
	}
}

// ClassStats is one class's scheduler accounting.
type ClassStats struct {
	// Submitted counts Run calls; Started tasks granted a slot;
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
	// Workers is the concurrency bound; Running how many slots are held now.
	Workers int `json:"workers"`
	Running int `json:"running"`
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
