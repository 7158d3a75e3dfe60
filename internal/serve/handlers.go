package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/admit"
	"repro/internal/core"
	"repro/internal/httpapi"
)

// HTTP API (every route is also served under the /v1/ prefix — the
// documented, versioned surface; the bare paths stay as legacy aliases):
//
//	GET /v1/healthz              liveness probe
//	GET /v1/experiments          registered experiments: claims + param schemas
//	GET /v1/run/{id}             serve one experiment (JSON envelope)
//	GET /v1/run/{id}?param=n=v   override declared parameters (repeatable)
//	GET /v1/run/{id}?format=text rendered ASCII report
//	GET /v1/run/{id}?format=csv  table/figure as CSV
//	POST /v1/batch               multi-get: varint-framed batch of requests in,
//	                             varint-framed per-entry outcomes + payloads out
//	GET /v1/stream               upgrade (arch21-stream) to the pipelined frame stream a
//	                             front-end carries its batch frames over
//	GET /v1/stats                engine metrics: counters, cache, per-class p50/p99
//	GET /v1/metrics              Prometheus text exposition (promlint-clean)
//	GET /v1/events?since=N       structured control-plane events after cursor N
//	POST /v1/control             live retune: {"batch_rate":..,"slo_ms":..} (strict: unknown keys are 400)
//
// Every error path answers with the shared JSON envelope
// {"error":{"code","message","retry_after_ms"}} (internal/httpapi).
//
// Every response is served through the engine, so hits, dedup, sheds, and
// latency percentiles in /stats reflect real traffic. The sweep package
// adds POST /sweep (parameter-grid fan-out, NDJSON streaming) on top of
// the same engine; cmd/arch21d mounts both.
//
// QoS envelope: requests carry their class in the X-Arch21-Class header
// ("interactive", the default, or "batch") and an optional remaining
// deadline budget in X-Arch21-Deadline-MS — both propagated by the
// routing front-end so a replica honors the hop-decremented budget the
// caller has left. The engine's admission scheduler may shed instead of
// serve: a full interactive queue answers 503, a deadline no projected
// queue wait can meet answers 429, both with a Retry-After hint; a run
// canceled mid-flight by its deadline answers 504.

// ParamInfo is one declared parameter in an /experiments row.
type ParamInfo struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"`
	Default float64 `json:"default"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Step    float64 `json:"step,omitempty"`
	Doc     string  `json:"doc,omitempty"`
}

// ExperimentInfo is one /experiments row. Exported so the routing
// front-end (internal/router) serves the byte-identical envelope a
// replica would.
type ExperimentInfo struct {
	ID     string      `json:"id"`
	Title  string      `json:"title"`
	Claim  string      `json:"claim"`
	Params []ParamInfo `json:"params,omitempty"`
}

// ExperimentInfos renders the whole registry in /experiments wire form.
func ExperimentInfos() []ExperimentInfo {
	var list []ExperimentInfo
	for _, ex := range core.Registry() {
		list = append(list, ExperimentInfo{
			ID:     ex.ID,
			Title:  ex.Title,
			Claim:  ex.PaperClaim,
			Params: ParamInfos(ex.Params),
		})
	}
	return list
}

// ParamInfos converts a declared schema to its wire form.
func ParamInfos(specs []core.ParamSpec) []ParamInfo {
	var out []ParamInfo
	for _, s := range specs {
		out = append(out, ParamInfo{
			Name:    s.Name,
			Kind:    s.Kind.String(),
			Default: s.Default,
			Min:     s.Min,
			Max:     s.Max,
			Step:    s.Step,
			Doc:     s.Doc,
		})
	}
	return out
}

// runTail is the result-derived end of the /run/{id} JSON envelope. The
// head before it differs per request (a bare-ID entry is shared by
// no-param requests, which omit "params", and explicit-default ones, which
// carry the resolved object); the tail is a pure function of the cached
// result, so it is rendered once per entry and memoized in the slab
// beside the payload (Cache.AttachAux).
type runTail struct {
	Headline *float64 `json:"headline,omitempty"`
	Findings []string `json:"findings,omitempty"`
	Report   string   `json:"report"`
}

// appendRunHead appends the envelope up to and including latency_ms, byte
// for byte what httpapi.WriteJSON emitted for those fields. Its numbers —
// resolved parameters and a duration — are finite, so the appender's
// non-finite error cannot occur here.
func appendRunHead(b []byte, rr *RawResponse) []byte {
	b = httpapi.AppendJSONString(append(b, "{\n  \"id\": "...), rr.ID)
	if len(rr.Params) > 0 {
		b = append(b, ",\n  \"params\": {"...)
		for i, name := range rr.Params.SortedNames() {
			if i > 0 {
				b = append(b, ',')
			}
			b = httpapi.AppendJSONString(append(b, "\n    "...), name)
			b, _ = httpapi.AppendJSONFloat(append(b, ": "...), rr.Params[name])
		}
		b = append(b, "\n  }"...)
	}
	if rr.Key != "" {
		b = httpapi.AppendJSONString(append(b, ",\n  \"key\": "...), rr.Key)
	}
	b = httpapi.AppendJSONString(append(b, ",\n  \"class\": "...), rr.Class.String())
	b = strconv.AppendBool(append(b, ",\n  \"cache_hit\": "...), rr.CacheHit)
	b = strconv.AppendBool(append(b, ",\n  \"shared\": "...), rr.Shared)
	b, _ = httpapi.AppendJSONFloat(append(b, ",\n  \"latency_ms\": "...), rr.Latency.Seconds()*1e3)
	return b
}

// AppendRoutedEnvelope appends the routing front-end's /run/{id} JSON
// envelope — the head, then the result's headline and findings, no
// report — byte for byte what httpapi.WriteJSON emitted for the struct
// the front-end used to marshal (kept in its test tree as the
// reference). It reports false for a headline JSON cannot carry.
func AppendRoutedEnvelope(b []byte, rr *RawResponse, headline *float64, findings []string) ([]byte, bool) {
	b = appendRunHead(b, rr)
	if headline != nil {
		var err error
		if b, err = httpapi.AppendJSONFloat(append(b, ",\n  \"headline\": "...), *headline); err != nil {
			return b, false
		}
	}
	if len(findings) > 0 {
		b = append(b, ",\n  \"findings\": ["...)
		for i, f := range findings {
			if i > 0 {
				b = append(b, ',')
			}
			b = httpapi.AppendJSONString(append(b, "\n    "...), f)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), true
}

// writeRunJSON answers /run/{id} in the default format: the head written
// per request, then the entry's tail — from the slab when a previous hit
// memoized it, otherwise rendered here and, on a hit, attached for the
// next one. A miss never attaches: the entry it filled may already be
// gone, and cold paths (sweeps, warm-up fills) must not pay for a render.
func (e *Engine) writeRunJSON(w http.ResponseWriter, rr RawResponse) {
	tail := rr.tail
	if tail == nil {
		res, err := rr.Result()
		var enc bytes.Buffer
		if err == nil {
			je := json.NewEncoder(&enc)
			je.SetIndent("", "  ")
			err = je.Encode(runTail{Headline: res.Headline, Findings: res.Findings, Report: res.Render()})
		}
		if err != nil {
			httpapi.WriteServingError(w, err, http.StatusInternalServerError)
			return
		}
		// "{\n  ...\n}\n" becomes ",\n  ...\n}\n", continuing the head.
		tail = enc.Bytes()
		tail[0] = ','
		if rr.CacheHit {
			e.cache.AttachAux(rr.Key, rr.Raw, tail)
		}
	}
	buf := httpapi.GetBuffer()
	*buf = append(appendRunHead((*buf)[:0], &rr), tail...)
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf)
	httpapi.PutBuffer(buf)
}

// Handler returns the engine's HTTP API, every route mounted under /v1
// with the unversioned path kept as a legacy alias.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	httpapi.MountFunc(mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	httpapi.MountFunc(mux, "GET /experiments", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, ExperimentInfos())
	})
	httpapi.MountFunc(mux, "GET /run/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		q := r.URL.Query()
		params, err := core.ParseParams(q["param"])
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		format := q.Get("format")
		switch format {
		case "", "json", "text", "csv", "bin":
		default:
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"format must be json, text, csv, or bin")
			return
		}
		ctx, cancel, err := httpapi.RequestContext(r)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		defer cancel()
		rr, err := e.ServeEncoded(ctx, id, params)
		if err != nil {
			httpapi.WriteServingError(w, err, http.StatusInternalServerError)
			return
		}
		switch format {
		case "", "json":
			e.writeRunJSON(w, rr)
			return
		case "bin":
			// The zero-copy transport: serve the memoized codec bytes as
			// the body (a warm hit is one slab read, no decode/re-encode;
			// the write below is the single copy-on-read) with the JSON
			// envelope's fields carried in response headers.
			h := w.Header()
			h.Set("Content-Type", "application/octet-stream")
			h.Set(httpapi.HeaderKey, rr.Key)
			h.Set(admit.HeaderClass, rr.Class.String())
			if rr.CacheHit {
				h.Set(httpapi.HeaderCacheHit, "1")
			}
			if rr.Shared {
				h.Set(httpapi.HeaderShared, "1")
			}
			for _, a := range rr.Params.Assignments() {
				h.Add(httpapi.HeaderParam, a)
			}
			_, _ = w.Write(rr.Raw)
			return
		}
		// text and csv decode at the edge.
		res, err := rr.Result()
		if err != nil {
			httpapi.WriteServingError(w, err, http.StatusInternalServerError)
			return
		}
		if format == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(res.Render()))
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		switch {
		case res.Table != nil:
			_, _ = w.Write([]byte(res.Table.CSV()))
		case res.Figure != nil:
			_, _ = w.Write([]byte(res.Figure.CSV()))
		}
	})
	// POST /batch: the multi-get wire surface (varint frames in and out,
	// per-entry outcome words, payloads served zero-copy from the slab).
	httpapi.MountFunc(mux, "POST /batch", func(w http.ResponseWriter, r *http.Request) {
		HandleBatch(w, r, e.ServeEncodedBatchInto, http.StatusInternalServerError)
	})
	// GET /stream: the same frames over one upgraded, pipelined connection.
	httpapi.MountFunc(mux, "GET /stream", e.handleStream)
	httpapi.MountFunc(mux, "GET /stats", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, e.Metrics())
	})
	httpapi.Mount(mux, "GET /metrics", e.MetricsRegistry().Handler())
	httpapi.Mount(mux, "GET /events", e.Events().Handler())
	httpapi.Mount(mux, "POST /control", e.ControlHandler())
	return mux
}
