package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// Backend is one serve replica the router can place requests on. Every
// request reaches it as a frame through DoBatch — a pre-assembled owner
// group or a chain attempt's frame of one (a bare EngineBackend's frame
// of one is served inline through its engine instead; Router.exchange).
// Implementations must be safe for concurrent calls.
type Backend interface {
	// DoBatch serves many items against the replica in a single exchange
	// under the caller's QoS context (tenant, deadline, hedge marker,
	// cancellation; each item carries its own class). Outcomes come back
	// in item order, one per item, and one item's failure never fails its
	// siblings — transport-level failures (the whole exchange lost) are
	// the returned error instead.
	//
	// The contract every implementation keeps, test doubles included:
	// DoBatch returns promptly once ctx ends, canceled or past its
	// deadline, whatever the replica is doing; and it keeps no reference
	// to items after it returns. The router runs an attempt on the
	// goroutine that needs its answer, bounds it by canceling ctx at
	// Config.Timeout, and reuses the items' storage once DoBatch returns.
	// The returned slice belongs to the caller, who may reuse it.
	DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error)
	// Check probes liveness cheaply; nil means healthy. The router calls
	// it to decide re-admission of an ejected backend.
	Check() error
	// Name identifies the backend in metrics ("engine[2]",
	// "http://host:8021").
	Name() string
}

// EngineBackend is an in-process serve.Engine shard.
type EngineBackend struct {
	eng  *serve.Engine
	name string
}

// NewEngineBackend wraps an engine. The caller keeps ownership (and must
// Close it).
func NewEngineBackend(eng *serve.Engine, name string) *EngineBackend {
	return &EngineBackend{eng: eng, name: name}
}

// DoBatch implements Backend straight through the engine's multi-get
// surface.
func (b *EngineBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	return b.eng.ServeEncodedBatchInto(ctx, items, getOuts(len(items))), nil
}

// Check implements Backend; an in-process engine is alive by definition.
func (b *EngineBackend) Check() error { return nil }

// Name implements Backend.
func (b *EngineBackend) Name() string { return b.name }

// Engine exposes the wrapped engine (tests inspect per-replica
// execution counts through it).
func (b *EngineBackend) Engine() *serve.Engine { return b.eng }

// Control implements Controller: apply the raw control body to the
// in-process engine and return the ack JSON.
func (b *EngineBackend) Control(_ context.Context, body []byte) ([]byte, error) {
	req, err := serve.DecodeControl(body)
	if err != nil {
		return nil, fmt.Errorf("router: %s: %v", b.name, err)
	}
	ack, err := b.eng.ApplyControl(req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(ack)
}

// replicaError is a replica's own answer — status, message and the retry
// hint a shed entry carried — as an error the one mapping
// (httpapi.ErrorStatus) passes through, so the router's verdict and the
// front-end's answer on either face are the replica's (DESIGN.md §8).
func replicaError(status int, msg string, retryAfter time.Duration) error {
	return &httpapi.StatusError{Status: status, Msg: fmt.Sprintf("HTTP %d: %s", status, msg), RetryAfter: retryAfter}
}

// HTTPBackend is a remote arch21d replica: frames ride one upgraded
// stream (stream.go); GET /healthz probes it and POST /control retunes it.
type HTTPBackend struct {
	base   string
	client *http.Client

	// smu guards stream — the live (or last, dead) connection — and
	// serializes dials. redials counts streams established after the
	// first: an atomic, so /stats never waits behind a dial.
	smu     ctxLock
	stream  *streamConn
	redials atomic.Int64
}

// NewHTTPBackend points at an arch21d base address (see httpapi.BaseURL).
func NewHTTPBackend(addr string) *HTTPBackend {
	return &HTTPBackend{
		base: httpapi.BaseURL(addr),
		smu:  make(ctxLock, 1),
		client: &http.Client{
			// Carries only /healthz (Check's 2 s context) and /control (the
			// fan-out's controlFanoutTimeout, which also bounds a caller whose
			// context has none). Reuse only works if every response body is
			// drained — see httpapi.DrainClose.
			Timeout:   controlFanoutTimeout,
			Transport: &http.Transport{IdleConnTimeout: 90 * time.Second},
		},
	}
}

// hopBudget is the slice of a request's remaining deadline the front-end
// keeps for itself when forwarding: network transfer plus envelope
// decode. The replica sees the decremented budget, so the whole chain —
// front-end admission, replica admission, replica execution — fits the
// caller's original deadline instead of each hop granting itself a fresh
// one.
const hopBudget = 5 * time.Millisecond

// Do serves one request as a frame of one and decodes it at the edge: a
// helper over DoBatch, kept because bench/ times the hop through it.
func (b *HTTPBackend) Do(ctx context.Context, id string, p core.Params) (serve.Response, error) {
	outs, err := b.DoBatch(ctx, []serve.BatchItem{itemOf(serve.IdentOf(id, p), admit.ClassFrom(ctx))})
	if err == nil {
		err = outs[0].Err
	}
	if err != nil {
		return serve.Response{}, err
	}
	return decodeResponse(outs[0].RawResponse)
}

// DoBatch implements Backend over the replica's stream: one A21B request
// frame out, one A21R outcome frame back. The QoS envelope (class,
// tenant, hedge marker, deadline less hopBudget) rides in front of the
// frame; a budget that cannot survive the hop is shed here without a
// wire message. A replica that cannot be reached over the stream — a
// dial error, an upgrade answered anything but 101, a base that is not
// plain http:// — fails the whole exchange as a transport failure.
// Entry-level errors surface as replicaError values so the router's
// verdict taxonomy (client error vs shed vs replica failure) applies per
// entry.
//
// The reply is walked straight into the outcomes, an entry answered
// under its identity's key taking the identity's string. Its body is a
// pooled buffer that every OK outcome's Raw aliases; the first outcome
// carries it (BatchOutcome.Reply) for the frame routine to recycle.
func (b *HTTPBackend) DoBatch(ctx context.Context, items []serve.BatchItem) ([]serve.BatchOutcome, error) {
	t0 := time.Now()
	env, err := httpapi.EnvelopeFrom(ctx, hopBudget)
	if err != nil {
		return nil, err
	}
	var reply *[]byte
	sc, err := b.streamFor(ctx)
	if err == nil {
		// An entry is its identity's wire bytes: nothing is rendered here.
		fb := httpapi.GetBuffer()
		msg := env.Append(append((*fb)[:0], make([]byte, httpapi.StreamHeaderLen)...))
		msg = httpapi.AppendBatchHeader(msg, len(items))
		for i := range items {
			ident := items[i].Ident
			if ident == nil {
				ident = serve.IdentOf(items[i].ID, items[i].Params)
			}
			msg = httpapi.AppendBatchEntry(msg, items[i].ID, items[i].Class, ident.Wire())
		}
		reply, err = sc.exchange(ctx, msg)
		*fb = msg
		// exchange returns only after the request bytes are written (or
		// abandoned), so the frame buffer is safe to recycle here.
		httpapi.PutBuffer(fb)
	}
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, fmt.Errorf("router: %s batch: %w", b.base, err)
	}
	elapsed := time.Since(t0)
	w, err := httpapi.WalkBatchResponse(*reply)
	if err == nil && w.Len() != len(items) {
		httpapi.PutReplyBuffer(reply)
		return nil, fmt.Errorf("router: %s: batch returned %d outcomes for %d items", b.base, w.Len(), len(items))
	}
	out := getOuts(len(items))
	for i := 0; err == nil && w.Next(); i++ {
		it := &items[i]
		if !w.OK {
			out[i].Err = fmt.Errorf("router: %s /batch entry %s: %w", b.base, it.ID,
				replicaError(w.Status, string(w.Msg), w.RetryAfter))
			continue
		}
		var key string
		if it.Ident != nil && string(w.Key) == it.Ident.Key() {
			key = it.Ident.Key()
		} else {
			key = string(w.Key)
		}
		out[i].RawResponse = serve.RawResponse{ID: it.ID, Params: it.Params, Key: key, Class: it.Class,
			Raw: w.Payload, CacheHit: w.CacheHit, Shared: w.Shared, Latency: elapsed}
	}
	if err == nil {
		err = w.Err
	}
	switch {
	case err != nil:
		httpapi.PutReplyBuffer(reply)
		return nil, fmt.Errorf("router: %s: bad batch frame: %v", b.base, err)
	case len(out) > 0: // a frame of none leaves its reply to the GC
		out[0].Reply = reply
	}
	return out, nil
}

// Redials reports how many times the stream had to be re-established
// after the first dial.
func (b *HTTPBackend) Redials() int64 { return b.redials.Load() }

// Control implements Controller: POST the raw body to the replica's
// /control and return its ack body.
func (b *HTTPBackend) Control(ctx context.Context, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/control",
		bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("router: %s: %v", b.base, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("router: %s: %w", b.base, err)
	}
	defer httpapi.DrainClose(resp.Body)
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("router: %s /control: %w", b.base,
			replicaError(resp.StatusCode, strings.TrimSpace(string(out)), 0))
	}
	return out, nil
}

// Check implements Backend: GET /healthz with a short deadline.
func (b *HTTPBackend) Check() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer httpapi.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: %s healthz: HTTP %d", b.base, resp.StatusCode)
	}
	return nil
}

// Name implements Backend.
func (b *HTTPBackend) Name() string { return b.base }
