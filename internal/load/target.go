package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Outcome reports how the target satisfied one request.
type Outcome struct {
	// CacheHit reports whether the result came straight from the
	// memoizing cache.
	CacheHit bool
	// Shared reports whether the request piggybacked on another caller's
	// in-flight execution (singleflight).
	Shared bool
}

// Target abstracts where load is applied: the in-process engine or a live
// daemon over HTTP. Implementations must be safe for concurrent Do calls
// and must carry the variant's class to the target (as a context tag
// in-process, as the X-Arch21-Class header over HTTP) so the scheduler
// accounts the request under the class the scenario declared.
type Target interface {
	// Do issues one request and reports its outcome.
	Do(v Variant) (Outcome, error)
	// Name identifies the target kind in reports ("engine", "http").
	Name() string
}

// Server is any in-process serving surface (serve.Engine, router.Router)
// a ServerTarget can drive — the zero-copy one: results stay encoded, so
// a warm hit costs no decode and the generator measures the slab path
// itself instead of its own decode allocations. Its event ring (nil when
// it has none) is what Run captures into the report.
type Server interface {
	ServeEncoded(ctx context.Context, id string, p core.Params) (serve.RawResponse, error)
	Events() *obs.Events
}

// ServerTarget applies load to any Server — the one in-process target,
// and how the router is measured like any single engine.
type ServerTarget struct {
	srv   Server
	name  string
	reset func()
	// classCtx precomputes one context per class: Do is the generator's
	// innermost loop, and rebuilding an identical context value per
	// request is pure allocator pressure. Tenant-tagged requests still
	// derive per-call (the tenant varies per variant).
	classCtx [2]context.Context
}

// NewServerTarget wraps a server under a target name for reports
// ("engine", "router"). reset drops the cache behind the server (the
// engine's Reset, or every replica's behind a router) for Reset
// scenarios; with a nil reset the target cannot reset, and its reports
// record reset: false as an HTTP target's do.
func NewServerTarget(srv Server, name string, reset func()) *ServerTarget {
	t := &ServerTarget{srv: srv, name: name, reset: reset}
	for _, class := range admit.Classes() {
		t.classCtx[class] = admit.WithClass(context.Background(), class)
	}
	return t
}

// Do serves one variant through the server under the variant's class
// and, for multi-tenant scenarios, its tenant identity — through the
// encoded path, so the measured request exercises exactly the bytes-out
// path the HTTP layer serves.
func (t *ServerTarget) Do(v Variant) (Outcome, error) {
	ctx := t.classCtx[v.Class]
	if v.Tenant != "" {
		ctx = admit.WithTenant(ctx, v.Tenant)
	}
	rr, err := t.srv.ServeEncoded(ctx, v.ID, v.Params)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{CacheHit: rr.CacheHit, Shared: rr.Shared}, nil
}

// Name identifies the target kind.
func (t *ServerTarget) Name() string { return t.name }

// HTTPTarget applies load to a live arch21d endpoint via GET /run/{id}.
type HTTPTarget struct {
	base   string
	client *http.Client
	// templates caches one immutable request skeleton (parsed URL +
	// stamped QoS headers) per distinct (variant, class, tenant) — the
	// catalog is finite and reused for the whole run, so the per-request
	// cost drops to one shallow http.Request literal instead of
	// url.Values + Encode + NewRequest + a fresh header map every call,
	// which is what kept the generator itself from driving a batched
	// cluster past a few hundred thousand requests per second.
	templates sync.Map // string -> *httpReqTemplate
}

// httpReqTemplate is one cached request skeleton. Both fields are
// immutable after construction: concurrent requests share them
// read-only (the transport never mutates an outgoing header map, and
// none of the daemon's endpoints redirect).
type httpReqTemplate struct {
	url    *url.URL
	header http.Header
}

// NewHTTPTarget points at an arch21d base address (see httpapi.BaseURL).
func NewHTTPTarget(addr string) *HTTPTarget {
	return &HTTPTarget{
		base: httpapi.BaseURL(addr),
		client: &http.Client{
			Timeout: 2 * time.Minute,
			// The default transport keeps only 2 idle connections per
			// host — a 32-client scenario would re-dial TCP every round
			// and measure handshakes instead of the daemon. Size the
			// idle pool past any scenario's client count.
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 256,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
}

// runOutcome is the slice of the /run/{id} JSON envelope the load
// generator needs.
type runOutcome struct {
	CacheHit bool `json:"cache_hit"`
	Shared   bool `json:"shared"`
}

// template returns the cached request skeleton for a variant, building
// it on first use: the full URL (query encoded once) and the QoS
// headers stamped once via httpapi.Forward — the same stamping path the
// routing front-end uses.
func (t *HTTPTarget) template(v Variant) (*httpReqTemplate, error) {
	key := v.String() + "\x00" + v.Class.String() + "\x00" + v.Tenant
	if c, ok := t.templates.Load(key); ok {
		return c.(*httpReqTemplate), nil
	}
	q := url.Values{}
	for _, a := range v.Params.Assignments() {
		q.Add("param", a)
	}
	u := t.base + "/run/" + url.PathEscape(v.ID)
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %v", v, err)
	}
	ctx := admit.WithClass(context.Background(), v.Class)
	if v.Tenant != "" {
		ctx = admit.WithTenant(ctx, v.Tenant)
	}
	if err := httpapi.Forward(req, ctx, 0); err != nil {
		return nil, fmt.Errorf("load: %s: %v", v, err)
	}
	tpl := &httpReqTemplate{url: req.URL, header: req.Header}
	t.templates.Store(key, tpl)
	return tpl, nil
}

// Do issues one GET /run/{id}?param=... request from the variant's
// cached skeleton and decodes the outcome. The response body is read
// into a pooled buffer: the envelope only needs two fields, and the
// generator's own per-request allocations must stay far below the
// server work it is measuring.
func (t *HTTPTarget) Do(v Variant) (Outcome, error) {
	tpl, err := t.template(v)
	if err != nil {
		return Outcome{}, err
	}
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        tpl.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     tpl.header,
		Host:       tpl.url.Host,
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return Outcome{}, err
	}
	defer httpapi.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return Outcome{}, fmt.Errorf("load: %s: HTTP %d: %s", v, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	bp := httpapi.GetBuffer()
	buf := (*bp)[:cap(*bp)]
	total := 0
	for {
		if total == len(buf) {
			buf = append(buf, 0)[:cap(buf)]
		}
		n, rerr := resp.Body.Read(buf[total:])
		total += n
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			*bp = buf[:0]
			httpapi.PutBuffer(bp)
			return Outcome{}, fmt.Errorf("load: %s: reading envelope: %v", v, rerr)
		}
	}
	var out runOutcome
	err = json.Unmarshal(buf[:total], &out)
	*bp = buf[:0]
	httpapi.PutBuffer(bp)
	if err != nil {
		return Outcome{}, fmt.Errorf("load: %s: bad envelope: %v", v, err)
	}
	return Outcome{CacheHit: out.CacheHit, Shared: out.Shared}, nil
}

// Name identifies the target kind.
func (t *HTTPTarget) Name() string { return "http" }
