package router

// The routing front-end's HTTP face. arch21d -peers mounts this in place
// of a local engine's handler: /run/{id} routes each request to the
// replica owning its cache key, POST /batch ships a varint-framed
// multi-request body through the batched data plane (one exchange per
// owning replica), /stats reports router counters and per-backend
// health, /experiments and /healthz serve locally (the registry is
// compiled in; the front-end's liveness is its own). POST /sweep is
// mounted separately via sweep.Handler(router), which fans grid points
// out through the same routing path. Every route is also
// reachable under the versioned /v1 prefix (httpapi.Mount), and every
// error is the shared httpapi JSON envelope.
//
// The routed /run envelope is JSON-only and carries headline + findings
// but not the rendered report (a remote replica's envelope is not
// re-fetched in full); ?format=text|csv is rejected with a pointer at
// the replicas, which serve every format.

import (
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/serve"
)

// Handler returns the routing front-end's HTTP API.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	httpapi.MountFunc(mux, "GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	httpapi.MountFunc(mux, "GET /experiments", func(w http.ResponseWriter, req *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, serve.ExperimentInfos())
	})
	httpapi.MountFunc(mux, "GET /run/{id}", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		if f := q.Get("format"); f != "" && f != "json" {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
				"the routing front-end serves JSON envelopes only; request format="+f+" from a replica directly")
			return
		}
		id := req.PathValue("id")
		params, err := core.ParseParams(q["param"])
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		// The front-end speaks the same QoS header contract as a replica
		// (X-Arch21-Class, X-Arch21-Deadline-MS); HTTPBackend re-emits the
		// envelope on its frame with the budget decremented per hop.
		ctx, cancel, err := httpapi.RequestContext(req)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		defer cancel()
		// The chain walk serves this as a frame of one, decoded once here at
		// the edge; its reply body goes back to its pool once this is written.
		out := r.serveOne(ctx, id, params)
		if out.Reply != nil {
			defer httpapi.PutReplyBuffer(out.Reply)
		}
		if out.Err != nil {
			httpapi.WriteServingError(w, out.Err, http.StatusBadGateway)
			return
		}
		res, err := core.DecodeSummary(out.RawResponse.Raw)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadGateway, httpapi.CodeUpstream,
				"bad result payload: "+err.Error())
			return
		}
		// The envelope — the replica's outcome, headline and findings —
		// is written by serve's hand-rolled writers into a pooled buffer.
		buf := httpapi.GetBuffer()
		defer httpapi.PutBuffer(buf)
		body, ok := serve.AppendRoutedEnvelope((*buf)[:0], &out.RawResponse, res.Headline, res.Findings)
		if !ok {
			httpapi.WriteError(w, http.StatusInternalServerError, httpapi.CodeInternal,
				"result headline is not a finite number")
			return
		}
		*buf = body
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	})
	// POST /batch: the front-end face of the multi-get plane. Entries
	// are regrouped by owning replica and shipped as one DoBatch
	// exchange per owner; per-entry failures ride inside the response
	// frame with the same status taxonomy the single-request route uses.
	httpapi.MountFunc(mux, "POST /batch", func(w http.ResponseWriter, req *http.Request) {
		serve.HandleBatch(w, req, r.ServeEncodedBatchInto, http.StatusBadGateway)
	})
	httpapi.MountFunc(mux, "GET /stats", func(w http.ResponseWriter, req *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, r.Metrics())
	})
	httpapi.Mount(mux, "GET /metrics", r.MetricsRegistry().Handler())
	httpapi.Mount(mux, "GET /events", r.Events().Handler())
	httpapi.MountFunc(mux, "POST /control", func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(io.LimitReader(req.Body, 1<<16))
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		// Refuse a body here, with the decoder every replica runs, so a
		// body one replica would refuse reaches none of them.
		if _, err := serve.DecodeControl(body); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		acks := r.Control(req.Context(), body)
		status := http.StatusOK
		for _, a := range acks {
			if !a.OK {
				// Partial application is visible in the rows; the status
				// flags that at least one replica did not retune.
				status = http.StatusMultiStatus
				break
			}
		}
		httpapi.WriteJSON(w, status, map[string]interface{}{"replicas": acks})
	})
	return mux
}
