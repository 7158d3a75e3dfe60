package serve_test

// One set of books, five doors: the same traffic through each of the
// engine's entry points — and through the HTTP frame handler and a router
// over an in-process engine — must land in the same per-class and
// per-tenant buckets, because every door books through one routine. The
// runner is gated: every wait is on an event, none is a sleep.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
)

// serveOne is one entry point, serving one request and reporting its error.
type serveOne func(ctx context.Context, id string, p core.Params) error

// books is what must agree across entry points: the per-class and
// per-tenant counters, without the latency snapshots and gauges.
type books struct {
	Requests, CacheHits, Deduped, Executions, Sheds int64
}

func booksOf(t *testing.T, e *serve.Engine) map[string]books {
	t.Helper()
	m := e.Metrics()
	out := map[string]books{}
	for name, c := range m.Classes {
		if err := c.Balance(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		out["class "+name] = books{c.Requests, c.CacheHits, c.Deduped, c.Executions, c.Sheds}
	}
	for name, tm := range m.Tenants {
		out["tenant "+name] = books{Requests: tm.Requests, CacheHits: tm.CacheHits, Sheds: tm.Sheds}
	}
	return out
}

// await spins until cond holds — a watchdog against a hang, never a pace.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		runtime.Gosched()
	}
}

func TestEveryEntryPointKeepsTheSameBooks(t *testing.T) {
	entryPoints := []struct {
		name  string
		serve func(e *serve.Engine) serveOne
	}{
		{"ServeEncoded", func(e *serve.Engine) serveOne {
			return func(ctx context.Context, id string, p core.Params) error {
				_, err := e.ServeEncoded(ctx, id, p)
				return err
			}
		}},
		{"ServeWith", func(e *serve.Engine) serveOne {
			return func(ctx context.Context, id string, p core.Params) error {
				_, err := e.ServeWith(ctx, id, p)
				return err
			}
		}},
		{"ServeEncodedBatchInto", func(e *serve.Engine) serveOne {
			return func(ctx context.Context, id string, p core.Params) error {
				items := []serve.BatchItem{{ID: id, Params: p, Class: admit.ClassFrom(ctx)}}
				return e.ServeEncodedBatchInto(ctx, items, nil)[0].Err
			}
		}},
		{"POST /batch", func(e *serve.Engine) serveOne {
			h := e.Handler()
			return func(ctx context.Context, id string, p core.Params) error {
				var run []string
				for k, v := range p {
					run = append(run, fmt.Sprintf("%s=%g", k, v))
				}
				body := httpapi.AppendBatchRequest(nil, []httpapi.BatchEntry{{ID: id, Class: admit.ClassFrom(ctx), Params: run}})
				req := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
				req.Header.Set(admit.HeaderTenant, admit.TenantFrom(ctx))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				res, err := httpapi.DecodeBatchResponse(rec.Body.Bytes())
				if err != nil {
					return fmt.Errorf("HTTP %d: %v", rec.Code, err)
				}
				if !res[0].OK {
					return fmt.Errorf("entry status %d: %s", res[0].Status, res[0].Msg)
				}
				return nil
			}
		}},
		{"router over EngineBackend", func(e *serve.Engine) serveOne {
			r, err := router.New([]router.Backend{router.NewEngineBackend(e, "e0")}, router.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return func(ctx context.Context, id string, p core.Params) error {
				_, err := r.ServeEncoded(ctx, id, p)
				return err
			}
		}},
	}

	var want map[string]books
	for _, ep := range entryPoints {
		entered := make(chan string, 8)
		release := make(chan struct{})
		e := serve.NewEngine(serve.Config{Shards: 4, Workers: 1, Queue: 1, Tenants: []string{"alpha"},
			RunnerWith: func(ctx context.Context, id string, _ core.Params) (core.Result, error) {
				entered <- id
				select {
				case <-release:
					return core.Result{Findings: []string{id}}, nil
				case <-ctx.Done():
					return core.Result{}, ctx.Err()
				}
			}})
		serveFn := ep.serve(e)
		ctx := admit.WithTenant(context.Background(), "alpha")
		async := func(id string) chan error {
			done := make(chan error, 1)
			go func() { done <- serveFn(ctx, id, nil) }()
			return done
		}

		// A miss, then a hit on what it memoized.
		done := async("A")
		<-entered
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: miss: %v", ep.name, err)
		}
		if err := serveFn(ctx, "A", nil); err != nil {
			t.Fatalf("%s: hit: %v", ep.name, err)
		}

		// A leader holding the one slot, a follower in its flight, a
		// request in the one queue place, and one more: shed.
		leader := async("L")
		<-entered
		follower := async("L")
		await(t, ep.name+": follower joining the flight", func() bool { return serve.FlightFollowers() == 1 })
		queued := async("Q")
		await(t, ep.name+": Q queued", func() bool { return e.Metrics().Classes["interactive"].QueueDepth == 1 })
		if err := serveFn(ctx, "S", nil); !strings.Contains(fmt.Sprint(err), "queue full") {
			t.Fatalf("%s: over a full queue: err = %v, want a queue-full shed", ep.name, err)
		}
		release <- struct{}{}
		<-entered // Q, granted the slot L gave back
		release <- struct{}{}
		for _, c := range []chan error{leader, follower, queued} {
			if err := <-c; err != nil {
				t.Fatalf("%s: %v", ep.name, err)
			}
		}

		// Bad params: rejected before the books.
		if err := serveFn(ctx, "E7", core.Params{"nope": 1}); err == nil {
			t.Fatalf("%s: bad params served", ep.name)
		}

		// A corrupt entry is ServeWith's explicit outcome — the one entry
		// point that decodes a hit — so it is served there on every engine:
		// deleted, run and booked as the miss it is.
		before := booksOf(t, e)["class interactive"]
		e.SetCached("C", []byte("not a result payload"))
		done = make(chan error, 1)
		go func() {
			_, err := e.ServeWith(ctx, "C", nil)
			done <- err
		}()
		<-entered
		release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("%s: corrupt entry: %v", ep.name, err)
		}
		after := booksOf(t, e)["class interactive"]
		if d := (books{after.Requests - before.Requests, after.CacheHits - before.CacheHits,
			after.Deduped - before.Deduped, after.Executions - before.Executions,
			after.Sheds - before.Sheds}); d != (books{Requests: 1, Executions: 1}) {
			t.Fatalf("%s: the corrupt entry booked %+v, want requests 1, cache_hits 0, executions 1", ep.name, d)
		}

		got := booksOf(t, e)
		e.Close()
		if want == nil {
			want = got
			if w := want["class interactive"]; w != (books{Requests: 7, CacheHits: 1, Deduped: 1, Executions: 4, Sheds: 1}) {
				t.Fatalf("%s: interactive books %+v", ep.name, w)
			}
			if w := want["tenant alpha"]; w != (books{Requests: 7, CacheHits: 1, Sheds: 1}) {
				t.Fatalf("%s: tenant books %+v", ep.name, w)
			}
			continue
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("%s: %s books %+v, want %+v as through %s", ep.name, k, got[k], w, entryPoints[0].name)
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: books %v, want %v", ep.name, got, want)
		}
	}
}
