package router

// One taxonomy, shown. Whatever a request carries — a warm or cold
// scoreboard, a deadline, a tenant, interactive or batch class — and
// whichever replica owns it, the client of Router.Handler() sees the
// same status, Retry-After, error code and envelope — and the same
// request as a POST /v1/batch entry the same status and retry hint. A
// 2-replica HTTP cluster, both reached over the stream.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// laneCluster is two one-worker, one-queue-slot replicas (so a queue can
// be filled) whose runner parks IDs prefixed "slow", with tenant tB
// declared.
type laneCluster struct {
	g     *gate
	engs  [2]*serve.Engine
	urls  [2]string
	place *Router // answers ownerOf; placement depends only on the backend count
}

func newLaneCluster(t *testing.T) *laneCluster {
	t.Helper()
	c := &laneCluster{g: &gate{release: make(chan struct{})}}
	for i := range c.engs {
		eng := serve.NewEngine(serve.Config{Shards: 4, Workers: 1, Queue: 1,
			RunnerWith: c.g.run, Tenants: []string{"tB"}})
		srv := httptest.NewServer(eng.Handler())
		t.Cleanup(srv.Close)
		t.Cleanup(eng.Close)
		c.engs[i], c.urls[i] = eng, srv.URL
	}
	t.Cleanup(func() { close(c.g.release) }) // LIFO: parked runners leave before Close drains
	c.place = c.front(t, false)
	return c
}

// front builds a fresh front-end over the cluster; primed warms both
// scoreboards. Hedging is off: a fresh backend's first exchange dials, a
// backup would beat it, and these tests are about which replica a
// request takes, not about the race.
func (c *laneCluster) front(t *testing.T, primed bool) *Router {
	t.Helper()
	r, err := New([]Backend{NewHTTPBackend(c.urls[0]), NewHTTPBackend(c.urls[1])}, Config{DisableHedge: true})
	if err != nil {
		t.Fatal(err)
	}
	if primed {
		primeScore(r, 0, 100e3)
		primeScore(r, 1, 100e3)
	}
	return r
}

// owned returns the first request mk yields whose routing key owner owns.
func (c *laneCluster) owned(t *testing.T, owner int, mk func(i int) (string, core.Params)) (string, core.Params) {
	t.Helper()
	for i := 0; i < 4096; i++ {
		if id, p := mk(i); ownerOf(c.place, id, p) == owner {
			return id, p
		}
	}
	t.Fatal("no key found for owner")
	return "", nil
}

// fillQueues pins the one worker of each engine (one-worker,
// one-queue-slot engines running g) and takes its one interactive queue
// slot: the next cold interactive request to it sheds.
func fillQueues(t *testing.T, g *gate, engs ...*serve.Engine) {
	t.Helper()
	for i, eng := range engs {
		before := g.started.Load()
		go eng.ServeWith(context.Background(), fmt.Sprintf("slowPin%d", i), nil)
		eventually(t, "the pinned run to start", func() bool { return g.started.Load() > before })
		go eng.ServeWith(context.Background(), fmt.Sprintf("slowQueued%d", i), nil)
		eventually(t, "the queue to fill", func() bool {
			return eng.Metrics().Classes[admit.Interactive.String()].QueueDepth >= 1
		})
	}
}

// postOne posts id as a one-entry frame to rt's /v1/batch with the given
// headers, its class the one they name, and returns the entry's outcome.
func postOne(t *testing.T, rt *Router, id string, p core.Params, headers ...map[string]string) httpapi.BatchResult {
	t.Helper()
	class := admit.Interactive
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", nil)
	for _, h := range headers {
		for name, v := range h {
			req.Header.Set(name, v)
			if name == admit.HeaderClass && v == "batch" {
				class = admit.Batch
			}
		}
	}
	req.Body = io.NopCloser(bytes.NewReader(httpapi.AppendBatchRequest(nil,
		[]httpapi.BatchEntry{{ID: id, Class: class, Params: p.Assignments()}})))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	res, err := httpapi.DecodeBatchResponse(rec.Body.Bytes())
	if rec.Code != http.StatusOK || err != nil || len(res) != 1 {
		t.Fatalf("POST /v1/batch %s: status %d, %v\n%s", id, rec.Code, err, rec.Body.String())
	}
	return res[0]
}

var latencyField = regexp.MustCompile(`"latency_ms": [0-9.e+-]+`)

func TestOneTaxonomyAcrossLanes(t *testing.T) {
	c := newLaneCluster(t)
	kinds := []struct {
		name   string
		primed bool
		header map[string]string
	}{
		{name: "warm scoreboard", primed: true},
		{name: "cold scoreboard"},
		{name: "deadline", primed: true, header: map[string]string{admit.HeaderDeadlineMS: "30000"}},
		{name: "tenant", primed: true, header: map[string]string{admit.HeaderTenant: "tB"}},
		{name: "batch class", header: map[string]string{admit.HeaderClass: "batch"}},
	}
	type outcome struct {
		name   string
		status int
		code   string // the error envelope's code; "" for a success
		retry  string // Retry-After
		// mk yields candidate requests; prep runs before every request to
		// put the owner's engine in the state the outcome needs.
		mk     func(i int) (string, core.Params)
		prep   func(eng *serve.Engine, id string)
		header map[string]string // on top of the kind's
		only   string            // the one kind the outcome applies to; "" for all
		skip   string            // a kind it cannot apply to
		hit    bool
		anyMsg bool // the message embeds a per-attempt figure: compare code and headers only
	}
	plain := func(prefix string) func(int) (string, core.Params) {
		return func(i int) (string, core.Params) { return fmt.Sprintf("%s%d", prefix, i), nil }
	}
	outcomes := []outcome{
		{name: "warm hit", status: 200, hit: true, mk: plain("W"),
			prep: func(eng *serve.Engine, id string) { _, _ = eng.ServeWith(context.Background(), id, nil) }},
		{name: "cold miss", status: 200, mk: plain("C"),
			prep: func(eng *serve.Engine, _ string) { eng.Reset() }},
		{name: "unknown experiment", status: 404, code: "not_found",
			mk: func(i int) (string, core.Params) { return fmt.Sprintf("NOPE%d", i), core.Params{"x": 1} }},
		{name: "bad param", status: 400, code: "bad_request",
			mk: func(i int) (string, core.Params) { return "E7", core.Params{"f": float64(7 + i)} }},
		// A budget the hop cannot survive: shed where the frame would have
		// been sent, whichever replica it would have gone to.
		{name: "deadline shed", status: 429, code: "deadline_unmeetable", retry: "1", only: "deadline",
			header: map[string]string{admit.HeaderDeadlineMS: "1"}, mk: plain("W"), anyMsg: true},
		// Every replica's queue is full (fillQueues, below): the shed fails
		// over, sheds again, and the last replica's hint reaches the
		// client. A batch request would block instead of shedding.
		{name: "queue-full shed", status: 503, code: "queue_full", retry: "1", skip: "batch class",
			mk: plain("S"), anyMsg: true},
	}
	for _, oc := range outcomes {
		if oc.name == "queue-full shed" {
			fillQueues(t, c.g, c.engs[:]...)
		}
		for owner := range c.engs {
			id, params := c.owned(t, owner, oc.mk)
			path := "/v1/run/" + id + "?" + url.Values{"param": params.Assignments()}.Encode()
			var refKind, refBody string
			for _, k := range kinds {
				if (oc.only != "" && oc.only != k.name) || oc.skip == k.name {
					continue
				}
				what := fmt.Sprintf("%s / %s owned by replica %d", oc.name, k.name, owner)
				if oc.prep != nil {
					oc.prep(c.engs[owner], id)
				}
				rt := c.front(t, k.primed)
				req := httptest.NewRequest(http.MethodGet, path, nil)
				for _, h := range []map[string]string{k.header, oc.header} {
					for name, v := range h {
						req.Header.Set(name, v)
					}
				}
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, req)

				if rec.Code != oc.status || rec.Header().Get("Retry-After") != oc.retry {
					t.Fatalf("%s: status %d Retry-After %q, want %d %q\n%s", what, rec.Code,
						rec.Header().Get("Retry-After"), oc.status, oc.retry, rec.Body.String())
				}
				body := rec.Body.String()
				if oc.code != "" {
					env := decodeEnvelope(t, rec)
					if env.Code != oc.code || (oc.retry != "") != (env.RetryAfterMS > 0) {
						t.Fatalf("%s: envelope %+v, want code %s", what, env, oc.code)
					}
					if body = env.Message; oc.anyMsg {
						body = ""
					} else if want := "router: " + c.urls[owner] + " /batch entry " + id + ": HTTP "; !strings.HasPrefix(body, want) {
						// The one wording an entry's error has, whichever
						// kind or owner.
						t.Fatalf("%s: message %q, want prefix %q", what, body, want)
					}
				} else {
					var env struct {
						CacheHit bool `json:"cache_hit"`
					}
					if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.CacheHit != oc.hit {
						t.Fatalf("%s: cache_hit %v (%v), want %v\n%s", what, env.CacheHit, err, oc.hit, body)
					}
					body = latencyField.ReplaceAllString(body, `"latency_ms": 0`)
					body = strings.Replace(body, `"class": "batch"`, `"class": "interactive"`, 1)
				}
				if refKind == "" {
					refKind, refBody = k.name, body
				} else if body != refBody {
					t.Fatalf("%s differs from the %s kind:\n%s\n--- vs ---\n%s", what, refKind, body, refBody)
				}

				// The same request as a one-entry frame through the
				// front-end's POST /v1/batch: the entry carries the status
				// and retry hint the /v1/run answer did.
				if oc.prep != nil {
					oc.prep(c.engs[owner], id)
				}
				res := postOne(t, c.front(t, k.primed), id, params, k.header, oc.header)
				status, retry := res.Status, ""
				if res.OK {
					status = http.StatusOK
				}
				if res.RetryAfter > 0 {
					retry = strconv.Itoa(int(math.Ceil(res.RetryAfter.Seconds())))
				}
				if status != oc.status || retry != oc.retry || (res.OK && res.CacheHit != oc.hit) ||
					(!res.OK && !oc.anyMsg && res.Msg != body) {
					t.Fatalf("%s via /v1/batch: entry %+v (Retry-After %q), want %d %q", what, res, retry, oc.status, oc.retry)
				}
			}
		}
	}
}

// A tenant tag survives the scoreboard's warm-up: a tenant-tagged
// request is booked under its tenant, an untagged one under other. The
// books are summed over every replica: a slow owner sample may demote
// the owner, and whichever replica answers must book the same tenant.
func TestTenantTaggedRequestKeepsItsTenantAfterWarmup(t *testing.T) {
	c := newLaneCluster(t)
	for owner := range c.engs {
		id, _ := c.owned(t, owner, func(i int) (string, core.Params) { return fmt.Sprintf("T%d", i), nil })
		rt := c.front(t, true)
		// Dial both streams outside the scoreboard, so the owner's first
		// exchange does not pay the dial and the owner usually answers.
		for _, b := range rt.backends {
			if _, err := serveOne(context.Background(), b, id, nil); err != nil {
				t.Fatal(err)
			}
		}
		get := func(tenant string) {
			t.Helper()
			req := httptest.NewRequest(http.MethodGet, "/v1/run/"+id, nil)
			if tenant != "" {
				req.Header.Set(admit.HeaderTenant, tenant)
			}
			rec := httptest.NewRecorder()
			if rt.Handler().ServeHTTP(rec, req); rec.Code != http.StatusOK {
				t.Fatalf("owner %d tenant %q: status %d\n%s", owner, tenant, rec.Code, rec.Body.String())
			}
		}
		books := func() (tB, other int64) {
			for _, eng := range c.engs {
				tenants := eng.Metrics().Tenants
				tB += tenants["tB"].Requests
				other += tenants["other"].Requests
			}
			return tB, other
		}
		tB0, other0 := books()
		get("tB")
		if tB1, other1 := books(); tB1 != tB0+1 || other1 != other0 {
			t.Fatalf("owner %d: tagged request booked tB %d→%d, other %d→%d; want tB +1",
				owner, tB0, tB1, other0, other1)
		}
		get("")
		if tB2, other2 := books(); tB2 != tB0+1 || other2 != other0+1 {
			t.Fatalf("owner %d: untagged request booked tB %d→%d, other %d→%d; want other +1",
				owner, tB0+1, tB2, other0, other2)
		}
	}
}
