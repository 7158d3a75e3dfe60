package admit

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestClassContextRoundTrip(t *testing.T) {
	if c := ClassFrom(context.Background()); c != Interactive {
		t.Fatalf("untagged context class = %v, want interactive", c)
	}
	if _, ok := ClassFromContext(context.Background()); ok {
		t.Fatal("untagged context reported an explicit class")
	}
	ctx := WithClass(context.Background(), Batch)
	if c, ok := ClassFromContext(ctx); !ok || c != Batch {
		t.Fatalf("tagged context class = %v ok=%v, want batch", c, ok)
	}
	// A nil context (the documented defensive path) is interactive too.
	var nilCtx context.Context
	if c := ClassFrom(nilCtx); c != Interactive {
		t.Fatalf("nil context class = %v, want interactive", c)
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]Class{
		"": Interactive, "interactive": Interactive, "batch": Batch,
		"Batch": Batch, " interactive ": Interactive,
	} {
		got, err := ParseClass(in)
		if err != nil || got != want {
			t.Fatalf("ParseClass(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Fatal("ParseClass should reject unknown class names")
	}
}

// The scheduler owns no goroutines: building one starts none, and a
// completed Run leaves none behind — the task ran on the caller.
func TestSchedulerOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler(Config{Workers: 8})
	defer s.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("NewScheduler started %d goroutines", n-before)
	}
	var ran bool
	if _, err := s.Run(context.Background(), func() ([]byte, error) { ran = true; return nil, nil }); err != nil || !ran {
		t.Fatalf("Run: ran=%v err=%v", ran, err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines more after a completed Run", n-before)
	}
}

func TestSchedulerRunsAndCounts(t *testing.T) {
	s := NewScheduler(Config{Workers: 2})
	defer s.Close()
	val, err := s.Run(context.Background(), func() ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil || string(val) != "ok" {
		t.Fatalf("Run = %q, %v", val, err)
	}
	_, err = s.Run(WithClass(context.Background(), Batch), func() ([]byte, error) {
		return nil, errors.New("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("Run should surface the task error, got %v", err)
	}
	st := s.Stats()
	ic, bc := st.Classes[Interactive.String()], st.Classes[Batch.String()]
	if ic.Submitted != 1 || ic.Started != 1 || ic.Completed != 1 || ic.Sheds != 0 {
		t.Fatalf("interactive stats: %+v", ic)
	}
	if bc.Submitted != 1 || bc.Started != 1 || bc.Completed != 1 {
		t.Fatalf("batch stats: %+v", bc)
	}
	if ic.AvgServiceSeconds <= 0 {
		t.Fatal("service EWMA not recorded")
	}
}

// Strict priority: with the workers pinned, queued interactive work runs
// before queued batch work regardless of arrival order.
func TestStrictPriorityOrdersInteractiveFirst(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 16})
	defer s.Close()

	gate := make(chan struct{})
	pinned := make(chan struct{})
	go s.Run(context.Background(), func() ([]byte, error) {
		close(pinned)
		<-gate
		return nil, nil
	})
	<-pinned

	var order []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	run := func(ctx context.Context, name string) {
		defer wg.Done()
		s.Run(ctx, func() ([]byte, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		})
	}
	// Batch arrives first, interactive second; priority must flip them.
	wg.Add(2)
	go run(WithClass(context.Background(), Batch), "batch")
	waitForQueued(t, s, Batch, 1)
	go run(context.Background(), "interactive")
	waitForQueued(t, s, Interactive, 1)

	close(gate)
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "interactive" || order[1] != "batch" {
		t.Fatalf("dispatch order = %v, want [interactive batch]", order)
	}
}

// A full interactive queue sheds with a ShedError instead of blocking.
func TestInteractiveQueueFullSheds(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 1})
	defer s.Close()

	gate := make(chan struct{})
	pinned := make(chan struct{})
	go s.Run(context.Background(), func() ([]byte, error) {
		close(pinned)
		<-gate
		return nil, nil
	})
	<-pinned
	// Fill the one queue slot.
	go s.Run(context.Background(), func() ([]byte, error) { return nil, nil })
	waitForQueued(t, s, Interactive, 1)

	_, err := s.Run(context.Background(), func() ([]byte, error) { return nil, nil })
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrShed) {
		t.Fatalf("queue-full interactive Run = %v, want ShedError", err)
	}
	if shed.Deadline {
		t.Fatal("queue-full shed should not be marked as a deadline shed")
	}
	close(gate)
	if st := s.Stats().Classes[Interactive.String()]; st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}
}

// A full batch queue backpressures: the submitter blocks (holding no
// lock — other submitters proceed) and completes once space frees.
func TestBatchQueueFullBackpressures(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 1})
	defer s.Close()

	gate := make(chan struct{})
	pinned := make(chan struct{})
	bctx := WithClass(context.Background(), Batch)
	go s.Run(bctx, func() ([]byte, error) {
		close(pinned)
		<-gate
		return nil, nil
	})
	<-pinned
	go s.Run(bctx, func() ([]byte, error) { return nil, nil }) // fills the queue
	waitForQueued(t, s, Batch, 1)

	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(bctx, func() ([]byte, error) { ran.Store(true); return nil, nil })
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("batch submit over a full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// While that batch submitter is blocked, an interactive submitter must
	// not be stalled by it (the old pool's head-of-line bug): its request
	// must reach the interactive queue promptly even though the batch
	// submitter is parked waiting for space.
	intDone := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), func() ([]byte, error) { return nil, nil })
		intDone <- err
	}()
	waitForQueued(t, s, Interactive, 1)

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("blocked batch submit: %v", err)
	}
	if err := <-intDone; err != nil {
		t.Fatalf("interactive submit alongside blocked batch submitter: %v", err)
	}
	if !ran.Load() {
		t.Fatal("backpressured batch task never ran")
	}
}

// The token bucket paces batch dispatch to the configured rate while
// leaving interactive work unthrottled.
func TestTokenBucketThrottlesBatch(t *testing.T) {
	// One token per worker to start, then 50 tokens/s: Workers+4 tasks
	// need ~80ms, the last four paced by the bucket.
	const workers = 4
	s := NewScheduler(Config{Workers: workers, Queue: 16, BatchRate: 50})
	defer s.Close()
	bctx := WithClass(context.Background(), Batch)

	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers+4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Run(bctx, func() ([]byte, error) { return nil, nil })
		}()
	}
	wg.Wait()
	if d := time.Since(t0); d < 60*time.Millisecond {
		t.Fatalf("%d batch tasks at 50/s past a %d-token burst finished in %v; bucket not throttling", workers+4, workers, d)
	}
	// Interactive is not subject to the bucket.
	t1 := time.Now()
	if _, err := s.Run(context.Background(), func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t1); d > 30*time.Millisecond {
		t.Fatalf("interactive task waited %v under an idle scheduler", d)
	}
	if got := s.BatchRate(); got != 50 {
		t.Fatalf("BatchRate = %v, want 50", got)
	}
	s.SetBatchRate(0)
	if got := s.BatchRate(); got != 0 {
		t.Fatalf("BatchRate after SetBatchRate(0) = %v, want 0", got)
	}
}

// A request whose deadline cannot be met by the projected queue wait is
// shed immediately with a retry hint.
func TestDeadlineAwareAdmissionSheds(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 8})
	defer s.Close()

	// Teach the EWMA a ~40ms service time.
	for i := 0; i < 3; i++ {
		s.Run(context.Background(), func() ([]byte, error) {
			time.Sleep(40 * time.Millisecond)
			return nil, nil
		})
	}
	// Pin the worker and stack the queue so projected wait is large.
	gate := make(chan struct{})
	pinned := make(chan struct{})
	go s.Run(context.Background(), func() ([]byte, error) {
		close(pinned)
		<-gate
		return nil, nil
	})
	<-pinned
	defer close(gate)
	for i := 0; i < 4; i++ {
		go s.Run(context.Background(), func() ([]byte, error) { return nil, nil })
	}
	waitForQueued(t, s, Interactive, 4)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := s.Run(ctx, func() ([]byte, error) { return nil, nil })
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("deadline-doomed Run = %v, want ShedError", err)
	}
	if !shed.Deadline {
		t.Fatalf("shed should be marked deadline: %+v", shed)
	}
	if shed.RetryAfter <= 0 {
		t.Fatalf("deadline shed carries no retry hint: %+v", shed)
	}
	// A generous deadline is admitted.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx2, func() ([]byte, error) { return nil, nil })
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("queued Run returned before the worker freed: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
}

// A task canceled while queued never runs, and is counted as a shed.
func TestCanceledWhileQueuedNeverRuns(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 8})
	defer s.Close()

	gate := make(chan struct{})
	pinned := make(chan struct{})
	go s.Run(context.Background(), func() ([]byte, error) {
		close(pinned)
		<-gate
		return nil, nil
	})
	<-pinned

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(ctx, func() ([]byte, error) { ran.Store(true); return nil, nil })
		done <- err
	}()
	waitForQueued(t, s, Interactive, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued Run = %v, want context.Canceled", err)
	}
	close(gate)
	s.Close()
	if ran.Load() {
		t.Fatal("canceled task ran anyway")
	}
	if st := s.Stats().Classes[Interactive.String()]; st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 8, BatchRate: 0.001})
	var ran atomic.Int64
	bctx := WithClass(context.Background(), Batch)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Run(bctx, func() ([]byte, error) { ran.Add(1); return nil, nil })
		}()
	}
	// Wait until all three are in the scheduler (first may be running).
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := s.Stats().Classes[Batch.String()]
		if st.Submitted == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batch submissions never landed")
		}
		time.Sleep(time.Millisecond)
	}
	// Close drains queued work even though the bucket is ~empty.
	s.Close()
	wg.Wait()
	if got := ran.Load(); got != 3 {
		t.Fatalf("drained runs = %d, want 3", got)
	}
	if _, err := s.Run(context.Background(), func() ([]byte, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// The scheduler's own books balance: submitted == started + sheds +
// queued for each class, under concurrent mixed-class load with
// cancellations.
func TestSchedulerAccountingBalances(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, Queue: 2})
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			if i%2 == 0 {
				ctx = WithClass(ctx, Batch)
			}
			if i%5 == 0 {
				c, cancel := context.WithTimeout(ctx, time.Duration(i%7)*time.Millisecond)
				defer cancel()
				ctx = c
			}
			s.Run(ctx, func() ([]byte, error) {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
				return nil, nil
			})
		}()
	}
	wg.Wait()
	s.Close()
	for name, st := range s.Stats().Classes {
		if st.Queued != 0 {
			t.Fatalf("%s: queue not drained: %+v", name, st)
		}
		if st.Submitted != st.Started+st.Sheds {
			t.Fatalf("%s accounting: submitted=%d != started=%d + sheds=%d",
				name, st.Submitted, st.Started, st.Sheds)
		}
		if st.Started != st.Completed {
			t.Fatalf("%s: started=%d != completed=%d", name, st.Started, st.Completed)
		}
	}
}

// waitForQueued spins until class c has n queued items (the submission
// goroutines are asynchronous).
func waitForQueued(t *testing.T, s *Scheduler, c Class, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.Stats().Classes[c.String()].Queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth for %s never reached %d (stats: %+v)", c, n, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// Regression: projected-wait admission must refill the bucket before
// projecting. After a batch-idle stretch the token bookkeeping is stale
// (possibly ~0 from the last dispatch); a deadline'd batch request
// arriving to an idle scheduler with a long-since-refilled bucket must
// be admitted, not shed on the phantom token wait.
func TestDeadlineAdmissionRefillsStaleTokens(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, Queue: 8, BatchRate: 50})
	defer s.Close()
	bctx := WithClass(context.Background(), Batch)

	// Teach the EWMA a tiny service time and drain the one-token bucket
	// to ~0.
	for i := 0; i < 2; i++ {
		if _, err := s.Run(bctx, func() ([]byte, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Idle long enough for the real bucket to refill a token (50/s ->
	// 20ms per token; wait 80ms for margin).
	time.Sleep(80 * time.Millisecond)

	ctx, cancel := context.WithTimeout(bctx, 10*time.Millisecond)
	defer cancel()
	if _, err := s.Run(ctx, func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("idle-bucket batch request with a tight deadline was rejected: %v", err)
	}
}

func TestNamesAndAccessors(t *testing.T) {
	if Class(9).String() != "class(9)" {
		t.Fatal("unknown-value names drifted")
	}
	full := (&ShedError{Class: Interactive, RetryAfter: time.Second}).Error()
	dl := (&ShedError{Class: Batch, Deadline: true, RetryAfter: time.Second}).Error()
	if !strings.Contains(full, "queue full") || !strings.Contains(dl, "deadline") {
		t.Fatalf("shed error texts: %q / %q", full, dl)
	}
	s := NewScheduler(Config{Workers: 3})
	defer s.Close()
	if st := s.Stats(); s.Workers() != 3 || st.BatchTokens != 3 {
		t.Fatalf("accessors: workers=%d batch tokens=%v, want 3 and one per worker", s.Workers(), st.BatchTokens)
	}
}

// A panicking task used to kill the worker goroutine — and with it the
// whole process — while the submitter blocked on a done channel that
// would never close. runTask must convert the panic into an error, keep
// the worker alive, and keep the completion books consistent.
func TestSchedulerTaskPanicBecomesError(t *testing.T) {
	s := NewScheduler(Config{Workers: 1})
	defer s.Close()

	_, err := s.Run(context.Background(), func() ([]byte, error) {
		panic("task blew up")
	})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking task: err = %v, want panic-converted error", err)
	}

	// The single worker survived: it must still run the next task.
	val, err := s.Run(context.Background(), func() ([]byte, error) {
		return []byte("alive"), nil
	})
	if err != nil || string(val) != "alive" {
		t.Fatalf("task after panic: %q, %v", val, err)
	}

	st := s.Stats()
	cs := st.Classes[Interactive.String()]
	if cs.Started != 2 || cs.Completed != 2 {
		t.Fatalf("worker books after panic: started=%d completed=%d, want 2/2", cs.Started, cs.Completed)
	}
}
