// Package httpapi is the shared wire contract of the HTTP surface: the
// X-Arch21-* QoS header parse/forward logic that the engine handlers,
// the routing front-end, and the load generator's HTTP target previously
// each reimplemented, the hedged-attempt marker, the versioned-route
// mounting helper (/v1 plus legacy aliases), and the one JSON error
// envelope and status mapping every error path answers with. Keeping it
// in one package means a header or error-shape change lands on every
// face of the API at once instead of drifting across three copies.
package httpapi

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/admit"
)

// HeaderHedge marks a hedged backup attempt on the wire ("1"). A replica
// serves it like any request — memoization makes the duplicate cheap —
// but operators can pick hedge traffic out of access logs, and a future
// hop can decline to re-hedge an already-hedged request.
const HeaderHedge = "X-Arch21-Hedge"

// Binary result transport (?format=bin): the response body is the raw
// core.Result codec payload exactly as memoized — served zero-copy from
// the tier-1 slab — and the envelope fields JSON would carry ride in
// these response headers instead. It is client API; the routing
// front-end's hop is the batch frame (batch.go), not this.
const (
	// HeaderKey echoes the cache key the result is memoized under.
	HeaderKey = "X-Arch21-Key"
	// HeaderCacheHit is "1" when the result came straight from the
	// replica's cache.
	HeaderCacheHit = "X-Arch21-Cache-Hit"
	// HeaderShared is "1" when the request piggybacked on another
	// caller's in-flight execution.
	HeaderShared = "X-Arch21-Shared"
	// HeaderParam carries one resolved "name=value" parameter assignment
	// per header value (repeated, like the ?param query key it mirrors).
	HeaderParam = "X-Arch21-Param"
)

type hedgeKey struct{}

// WithHedge tags a context as a hedged backup attempt.
func WithHedge(ctx context.Context) context.Context {
	return context.WithValue(ctx, hedgeKey{}, true)
}

// IsHedge reports whether the context carries the hedge marker.
func IsHedge(ctx context.Context) bool {
	v, _ := ctx.Value(hedgeKey{}).(bool)
	return v
}

// RequestContext derives a request's QoS context from its headers: the
// class from X-Arch21-Class, the tenant identity from X-Arch21-Tenant
// (free-form here; the engine's bounded books fold unknown tenants into
// "other"), the hedge marker from X-Arch21-Hedge, and the remaining
// deadline budget from X-Arch21-Deadline-MS, layered onto the request's
// own cancellation. Shared by the engine's handlers and the routing
// front-end so both faces of the API speak the same header contract. The
// returned cancel must be called when the request finishes.
func RequestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	var env Envelope
	var err error
	if env.Class, err = admit.ParseClass(r.Header.Get(admit.HeaderClass)); err != nil {
		return nil, nil, err
	}
	if env.Tenant, err = admit.ParseTenant(r.Header.Get(admit.HeaderTenant)); err != nil {
		return nil, nil, err
	}
	env.Hedge = r.Header.Get(HeaderHedge) != ""
	if h := r.Header.Get(admit.HeaderDeadlineMS); h != "" {
		ms, err := strconv.ParseFloat(h, 64)
		if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) || ms <= 0 {
			return nil, nil, fmt.Errorf("httpapi: bad %s header %q (want a positive millisecond budget)",
				admit.HeaderDeadlineMS, h)
		}
		// A sub-nanosecond budget is still a deadline, not "none".
		env.Deadline = max(time.Duration(ms*float64(time.Millisecond)), 1)
	}
	ctx, cancel := env.Context(r.Context())
	return ctx, cancel, nil
}

// Forward stamps the context's QoS envelope onto an outbound request:
// the class in X-Arch21-Class, the tenant in X-Arch21-Tenant, the hedge
// marker in X-Arch21-Hedge, and the remaining deadline — decremented by
// hopBudget, see EnvelopeFrom — in X-Arch21-Deadline-MS. When the budget
// cannot survive the hop it returns EnvelopeFrom's *admit.ShedError.
func Forward(req *http.Request, ctx context.Context, hopBudget time.Duration) error {
	env, err := EnvelopeFrom(ctx, hopBudget)
	if err != nil {
		return err
	}
	req.Header.Set(admit.HeaderClass, env.Class.String())
	if env.Tenant != "" {
		req.Header.Set(admit.HeaderTenant, env.Tenant)
	}
	if env.Hedge {
		req.Header.Set(HeaderHedge, "1")
	}
	if env.Deadline > 0 {
		req.Header.Set(admit.HeaderDeadlineMS, strconv.FormatInt(int64(env.Deadline/time.Millisecond), 10))
	}
	return nil
}

// BaseURL normalizes an arch21d address into the base URL every client
// of it (a routing front-end's backend, the load generator's HTTP
// target) prefixes its paths with: ":8021" means localhost, a bare
// "host:port" gets http://, and a trailing slash goes.
func BaseURL(addr string) string {
	base := strings.TrimSuffix(addr, "/")
	if strings.HasPrefix(base, ":") {
		base = "localhost" + base
	}
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return base
}

// DrainClose consumes what remains of an HTTP response body (bounded)
// and closes it. net/http only returns a connection to the keep-alive
// pool when its body has been read to EOF — closing an undrained body
// tears the connection down, so every exit path that skips part of a
// response (error statuses, partial decodes) must drain through here or
// the idle pool silently degrades to a dial per request.
func DrainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	_ = body.Close()
}

// Mount registers a handler under both its legacy pattern and the /v1
// alias ("GET /run/{id}" also serves as "GET /v1/run/{id}"). The
// versioned paths are the documented surface; the unversioned ones stay
// for clients that predate /v1.
func Mount(mux *http.ServeMux, pattern string, h http.Handler) {
	mux.Handle(pattern, h)
	if method, path, ok := strings.Cut(pattern, " "); ok && strings.HasPrefix(path, "/") {
		mux.Handle(method+" /v1"+path, h)
		return
	}
	mux.Handle("/v1"+pattern, h)
}

// MountFunc is Mount for a plain handler func.
func MountFunc(mux *http.ServeMux, pattern string, h func(http.ResponseWriter, *http.Request)) {
	Mount(mux, pattern, http.HandlerFunc(h))
}
