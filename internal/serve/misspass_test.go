package serve

// The batch call's miss pass (serveMisses), driven by gated runners: what
// runs at once, what a repeated key costs, whose books an item lands in,
// what cancellation stops and what a panic takes down — with the
// per-class conservation law checked after each. No test here sleeps: a
// runner announces itself and waits to be released.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
)

// gate is a RunnerWith whose every call announces itself on entered and
// then waits for one token on release (or for its context).
type gate struct {
	entered      chan string
	release      chan struct{}
	inside, peak atomic.Int64
	started      atomic.Int64
}

func newGate() *gate {
	return &gate{entered: make(chan string, 256), release: make(chan struct{})}
}

func (g *gate) run(ctx context.Context, id string, _ core.Params) (core.Result, error) {
	g.started.Add(1)
	n := g.inside.Add(1)
	defer g.inside.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	g.entered <- id
	select {
	case <-g.release:
		return fakeResult(id), nil
	case <-ctx.Done():
		return core.Result{}, ctx.Err()
	}
}

// within fails the test if f has not returned inside the watchdog — a
// hang, never a pace: every wait in these tests is on an event.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not finish", what)
	}
}

// checkConservation asserts hits + deduped + sheds + executions ==
// requests for every class and returns the per-class books.
func checkConservation(t *testing.T, e *Engine) map[string]ClassMetrics {
	t.Helper()
	m := e.Metrics()
	for _, class := range admit.Classes() {
		cm := m.Classes[class.String()]
		if err := cm.Balance(); err != nil {
			t.Errorf("%s: %v", class, err)
		}
	}
	return m.Classes
}

func coldItems(n int, class admit.Class) []BatchItem {
	items := make([]BatchItem, n)
	for i := range items {
		items[i] = BatchItem{ID: fmt.Sprintf("K%d", i), Class: class}
	}
	return items
}

// A 64-miss frame on a 4-worker engine has all four workers busy and never
// a fifth runner, and serves all 64.
func TestMissPassRunsWorkersAtOnceAndNoMore(t *testing.T) {
	g := newGate()
	e := NewEngine(Config{Shards: 4, Workers: 4, RunnerWith: g.run})
	defer e.Close()
	var out []BatchOutcome
	within(t, "the 64-miss frame", func() {
		done := make(chan struct{})
		go func() {
			out = e.ServeEncodedBatchInto(context.Background(), coldItems(64, admit.Batch), nil)
			close(done)
		}()
		for i := 0; i < 4; i++ {
			<-g.entered
		}
		if n := g.inside.Load(); n != 4 {
			t.Errorf("%d runners inside with four entered", n)
		}
		// Each release lets exactly one more in.
		for i := 4; i < 64; i++ {
			g.release <- struct{}{}
			<-g.entered
		}
		for i := 0; i < 4; i++ {
			g.release <- struct{}{}
		}
		<-done
	})
	for i, o := range out {
		if o.Err != nil || o.RawResponse.CacheHit || o.RawResponse.Key != fmt.Sprintf("K%d", i) {
			t.Fatalf("item %d: key %q hit=%v err=%v", i, o.RawResponse.Key, o.RawResponse.CacheHit, o.Err)
		}
	}
	if p := g.peak.Load(); p != 4 {
		t.Fatalf("peak of %d runners at once, want exactly Workers = 4", p)
	}
	if b := checkConservation(t, e)["batch"]; b.Requests != 64 || b.Executions != 64 {
		t.Fatalf("batch books: %+v", b)
	}
}

// flightFollowers counts goroutines parked in a singleflight wait — the
// one place a follower can be seen before its leader finishes.
func flightFollowers() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*flightGroup).Do") && strings.Contains(g, "(*WaitGroup).Wait") {
			n++
		}
	}
	return n
}

// A key repeated inside one frame executes once; the repeat joins the
// first one's flight and is booked deduped.
func TestMissPassDedupesARepeatedKey(t *testing.T) {
	g := newGate()
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: g.run})
	defer e.Close()
	var out []BatchOutcome
	within(t, "the frame with a repeated key", func() {
		done := make(chan struct{})
		go func() {
			out = e.ServeEncodedBatchInto(context.Background(), []BatchItem{{ID: "K1"}, {ID: "K1"}}, nil)
			close(done)
		}()
		<-g.entered
		for flightFollowers() < 1 { // the repeat has joined the flight
			runtime.Gosched()
		}
		g.release <- struct{}{}
		<-done
	})
	if out[0].Err != nil || out[1].Err != nil || out[0].RawResponse.Shared == out[1].RawResponse.Shared {
		t.Fatalf("outcomes: %+v", out)
	}
	if b := checkConservation(t, e)["interactive"]; b.Requests != 2 || b.Executions != 1 || b.Deduped != 1 || g.started.Load() != 1 {
		t.Fatalf("interactive books: %+v, %d runs", b, g.started.Load())
	}
}

// A frame of mixed classes books each item under its own class, whatever
// class the call's context carries.
func TestMissPassBooksEachItemUnderItsClass(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: byID(func(id string) (core.Result, error) { return fakeResult(id), nil })})
	defer e.Close()
	items := coldItems(10, admit.Batch)
	for i := 0; i < 10; i += 3 { // items 0, 3, 6, 9
		items[i].Class = admit.Interactive
	}
	for _, o := range e.ServeEncodedBatchInto(admit.WithClass(context.Background(), admit.Batch), items, nil) {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
	}
	books := checkConservation(t, e)
	if in, b := books["interactive"], books["batch"]; in.Requests != 4 || in.Executions != 4 || b.Requests != 6 || b.Executions != 6 {
		t.Fatalf("interactive %+v, batch %+v", in, b)
	}
	if sub := e.Metrics().Scheduler.Classes; sub["interactive"].Submitted != 4 || sub["batch"].Submitted != 6 {
		t.Fatalf("the scheduler admitted %+v", sub)
	}
}

// Cancelling the call while its first runners are held: they end, every
// miss behind them is booked a shed, and none of those starts.
func TestMissPassCancelShedsWhatHasNotStarted(t *testing.T) {
	g := newGate()
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: g.run})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out []BatchOutcome
	within(t, "the canceled frame", func() {
		done := make(chan struct{})
		go func() {
			out = e.ServeEncodedBatchInto(ctx, coldItems(8, admit.Batch), nil)
			close(done)
		}()
		<-g.entered
		<-g.entered
		cancel()
		<-done
	})
	for i, o := range out {
		if o.Err == nil {
			t.Fatalf("item %d served after the cancel", i)
		}
	}
	if n := g.started.Load(); n != 2 {
		t.Fatalf("%d runners started, want the 2 that were held", n)
	}
	if b := checkConservation(t, e)["batch"]; b.Requests != 8 || b.Executions != 2 || b.Sheds != 6 {
		t.Fatalf("batch books: %+v", b)
	}
}

// A runner that panics fails its own item and nothing else.
func TestMissPassPanicFailsOneItem(t *testing.T) {
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: byID(func(id string) (core.Result, error) {
		if id == "K2" {
			panic("model blew up")
		}
		return fakeResult(id), nil
	})})
	defer e.Close()
	for i, o := range e.ServeEncodedBatchInto(context.Background(), coldItems(5, admit.Interactive), nil) {
		if bad := i == 2; (o.Err != nil) != bad || bad && !strings.Contains(o.Err.Error(), "model blew up") {
			t.Fatalf("item %d: err = %v", i, o.Err)
		}
	}
	if b := checkConservation(t, e)["interactive"]; b.Requests != 5 || b.Executions != 5 {
		t.Fatalf("interactive books: %+v", b)
	}
}
