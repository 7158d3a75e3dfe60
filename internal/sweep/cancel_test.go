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

// returnsWithin fails the test unless f returns inside the watchdog: the
// gated runners below are never released, so a sweep whose cancellation
// did not reach them would hang here rather than pass slowly.
func returnsWithin(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { f(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return: in-flight points were not canceled", what)
	}
}

func TestDroppedSweepStreamCancelsInFlightPoints(t *testing.T) {
	// 36 points in waves of four: wave 1 (f = 0.9, 0.905) runs through,
	// every later point would sit in its runner until released — and
	// nothing ever releases it.
	held := make(chan struct{}, 36)
	eng := gatedEngine(0.9075, held, make(chan struct{}))
	defer eng.Close()
	srv := httptest.NewServer(Handler(eng))
	defer srv.Close()

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
	// Read two streamed point lines, wait until a wave-2 point is inside
	// its runner, then hang up mid-sweep.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, sc.Err())
		}
	}
	<-held
	resp.Body.Close()

	// The disconnect cancels the request context; the held points return
	// at their cancellation check and queued points never start. Closing
	// the server waits for the handler, so once it returns the sweep is
	// over and the books are final.
	returnsWithin(t, "the dropped sweep's handler", srv.Close)
	if got := eng.Metrics().Executions; got < 5 || got > 4+2 {
		t.Fatalf("%d executions, want wave 1's four plus the one or two points the two workers held", got)
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
	held := make(chan struct{}, 36)
	eng := gatedEngine(0.9075, held, make(chan struct{})) // never released
	defer eng.Close()

	sp, err := ParseSpec("E7", []string{"f=0.9:0.985:0.005", "bces=64,1024"})
	if err != nil {
		t.Fatal(err)
	}
	sp.Parallelism = 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held // wave 1 is done and a wave-2 point is inside its runner
		cancel()
	}()
	returnsWithin(t, "the canceled sweep", func() { _, err = Run(ctx, eng, sp, nil) })
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, context.Canceled) && !errors.Is(err, errAborted) {
		t.Fatalf("canceled sweep error = %v", err)
	}
	if got := eng.Metrics().Executions; got < 5 || got > 4+2 {
		t.Fatalf("%d executions, want wave 1's four plus the one or two points the two workers held", got)
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
