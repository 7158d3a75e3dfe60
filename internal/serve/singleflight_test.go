package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// A panicking flight fn used to wedge the group permanently: the
// flightCall stayed in the map with its WaitGroup never Done, so every
// later Do for the key blocked forever. The panic must instead become an
// error shared with concurrent waiters, and the key must be immediately
// usable again.
func TestFlightGroupPanicUnwedges(t *testing.T) {
	var g flightGroup
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, errs[0], _ = g.Do("k", func() ([]byte, error) {
			close(leaderIn)
			<-release
			panic("experiment exploded")
		})
	}()
	<-leaderIn
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err, shared := g.Do("k", func() ([]byte, error) {
				t.Error("waiter executed its own fn while a flight was up")
				return nil, nil
			})
			if !shared {
				t.Errorf("waiter %d: shared = false, want true", i)
			}
			errs[i] = err
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters block on the flight
	close(release)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiters still blocked after leader panic: flight wedged")
	}
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("caller %d: err = %v, want panic-converted error", i, err)
		}
	}

	// The key must not be poisoned: a fresh Do runs its fn normally.
	val, err, shared := g.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(val) != "ok" {
		t.Fatalf("Do after panic = %q, %v, shared=%v; want fresh successful run", val, err, shared)
	}
}

// A panicking experiment run, end to end: the engine must surface an
// error to the caller (and to concurrent deduplicated callers), keep the
// per-class books conserved, and keep serving the ID afterwards — no
// wedged flight, no crashed worker pool.
func TestEnginePanickingRunRegression(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	entered := make(chan struct{})
	release := make(chan struct{})
	e := NewEngine(Config{Shards: 4, Workers: 2, RunnerWith: byID(func(id string) (core.Result, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release // hold the flight open until every caller has joined
			panic("bad experiment state")
		}
		return fakeResult(id), nil
	})})
	defer e.Close()

	const callers = 4
	errCh := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := serveDefault(e, "E9-panic")
			errCh <- err
		}()
	}
	<-entered
	time.Sleep(20 * time.Millisecond) // let the followers block on the flight
	close(release)
	got := 0
	for got < callers {
		select {
		case err := <-errCh:
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("Serve during panicking run: err = %v, want panic-converted error", err)
			}
			got++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d/%d callers returned: engine wedged on panicking run", got, callers)
		}
	}

	// The flight and the worker pool must both still be alive.
	r, err := serveDefault(e, "E9-panic")
	if err != nil {
		t.Fatalf("Serve after panicking run: %v", err)
	}
	if r.CacheHit {
		t.Fatal("retry after failed run should execute, not hit")
	}
	if r2, err := serveDefault(e, "E9-panic"); err != nil || !r2.CacheHit {
		t.Fatalf("memoization after recovery: hit=%v err=%v", r2.CacheHit, err)
	}

	m := e.Metrics()
	for class, pc := range m.Classes {
		if err := pc.Balance(); err != nil {
			t.Fatalf("class %s books not conserved after panic: %v", class, err)
		}
	}
}

// Unrelated keys must keep flowing while a flight for another key is
// stuck in a slow (here: panicking) run.
func TestFlightGroupPanicIsolatedPerKey(t *testing.T) {
	var g flightGroup
	_, err, _ := g.Do("boom", func() ([]byte, error) { panic(errors.New("wrapped")) })
	if err == nil {
		t.Fatal("panic not converted to error")
	}
	if val, err, _ := g.Do("calm", func() ([]byte, error) { return []byte("v"), nil }); err != nil || string(val) != "v" {
		t.Fatalf("unrelated key after panic: %q, %v", val, err)
	}
}
