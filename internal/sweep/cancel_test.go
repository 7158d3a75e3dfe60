package sweep

// e2e cancellation: dropping the NDJSON /sweep stream must cancel the
// sweep's in-flight grid points, not just the queued ones — the engine's
// executions counter stops rising and never reaches the full grid.

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/serve"
)

// slowCtxRunner sleeps d per point, returning early (with ctx.Err) when
// the request context is canceled — the behavior core.RunWith gives real
// experiments via their iteration-boundary checks.
func slowCtxRunner(d time.Duration) func(context.Context, string, core.Params) (core.Result, error) {
	return func(ctx context.Context, id string, p core.Params) (core.Result, error) {
		select {
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		case <-time.After(d):
		}
		res := core.Result{Findings: []string{"point done"}}
		res.SetHeadline(p.Float("f"))
		return res, nil
	}
}

func TestDroppedSweepStreamCancelsInFlightPoints(t *testing.T) {
	eng := serve.NewEngine(serve.Config{
		Shards: 4, Workers: 2, Queue: 4,
		RunnerWith: slowCtxRunner(30 * time.Millisecond),
	})
	defer eng.Close()
	srv := httptest.NewServer(Handler(eng))
	defer srv.Close()

	// A 36-point grid at 30ms per cold point: ~540ms of compute if nobody
	// cancels it.
	body := `{"id":"E7","params":["f=0.9:0.985:0.005","bces=64,1024"],"parallelism":2}`
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/sweep", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("POST /sweep: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Read two streamed point lines, then hang up mid-sweep.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, sc.Err())
		}
	}
	resp.Body.Close()

	// The disconnect cancels the request context; in-flight points return
	// at their next cancellation check and queued points never start.
	// Give the abort a moment to propagate, then require the executions
	// counter to go quiet well short of the full grid.
	deadline := time.Now().Add(2 * time.Second)
	var settled int64
	for {
		a := eng.Executions()
		time.Sleep(150 * time.Millisecond)
		b := eng.Executions()
		if a == b {
			settled = b
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("executions still rising long after disconnect (%d -> %d)", a, b)
		}
	}
	if settled >= 36 {
		t.Fatalf("sweep ran to completion (%d executions) despite the dropped stream", settled)
	}
	// And it stays quiet: no background grinding resumes.
	time.Sleep(200 * time.Millisecond)
	if got := eng.Executions(); got != settled {
		t.Fatalf("executions rose again after settling: %d -> %d", settled, got)
	}
}

// errAborted marked the points Run's per-point fan-out skipped once its
// sweep was doomed. The fan-out is gone and Run never returns it; it is
// declared here only because the test below still names it.
var errAborted = errors.New("sweep aborted")

// sweep.Run itself reacts to caller cancellation: in-flight points are
// canceled through the derived context and the sweep returns promptly
// with the context error.
func TestRunCanceledContextAbortsInFlight(t *testing.T) {
	eng := serve.NewEngine(serve.Config{
		Shards: 4, Workers: 2, Queue: 4,
		RunnerWith: slowCtxRunner(50 * time.Millisecond),
	})
	defer eng.Close()

	sp, err := ParseSpec("E7", []string{"f=0.9:0.985:0.005", "bces=64,1024"})
	if err != nil {
		t.Fatal(err)
	}
	sp.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(80 * time.Millisecond) // a couple of points in
		cancel()
	}()
	t0 := time.Now()
	_, err = Run(ctx, eng, sp, nil)
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, errAborted) {
		t.Fatalf("canceled sweep error = %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Fatalf("canceled sweep took %v; in-flight points were not canceled", elapsed)
	}
	if got := eng.Executions(); got >= 36 {
		t.Fatalf("sweep executed the whole grid (%d) despite cancellation", got)
	}
}

// Sweep grid points run as batch class: the engine accounts them under
// batch, leaving the interactive books untouched.
func TestSweepRunsAsBatchClass(t *testing.T) {
	eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 2,
		RunnerWith: func(_ context.Context, id string, p core.Params) (core.Result, error) {
			res := core.Result{Findings: []string{"ok"}}
			res.SetHeadline(p.Float("f"))
			return res, nil
		}})
	defer eng.Close()
	sp, err := ParseSpec("E7", []string{"f=0.9,0.95,0.99"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), eng, sp, nil); err != nil {
		t.Fatal(err)
	}
	m := eng.Metrics()
	if got := m.Classes[admit.Batch.String()].Requests; got != 3 {
		t.Fatalf("batch-class requests = %d, want 3", got)
	}
	if got := m.Classes[admit.Interactive.String()].Requests; got != 0 {
		t.Fatalf("interactive-class requests = %d, want 0 for a sweep", got)
	}
}
