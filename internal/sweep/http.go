package sweep

// POST /sweep — the HTTP face of the sweep engine. The request names an
// experiment and its axes; the response streams NDJSON: one line per
// completed grid point (in grid order) and one final summary line
// carrying the aggregated report. Lines are flushed when Run is about to
// wait on the server — after a wave's last point, the summary line, the
// terminal error line — not one by one: no line is ever held across a
// wait for compute, so a client sees every point as soon as the server
// has nothing newer to add, and a wave that is already computed goes out
// in one write instead of one per point (net/http's own buffer writes
// through when it fills). Repeat sweeps are served from the engine's
// memoizing cache, so a hot sweep streams at cache speed. cmd/arch21d
// mounts this next to the engine's own handlers.

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/core"
	"repro/internal/httpapi"
)

// Request is the POST /sweep body.
type Request struct {
	// ID is the experiment to sweep.
	ID string `json:"id"`
	// Params are axis assignments in sweep order, one "name=value",
	// "name=a,b,c", or "name=lo:hi:step" string per axis.
	Params []string `json:"params"`
	// Parallelism optionally caps in-flight points.
	Parallelism int `json:"parallelism,omitempty"`
}

// PointLine is one streamed NDJSON point line.
type PointLine struct {
	Point     int         `json:"point"`
	Params    core.Params `json:"params"`
	Key       string      `json:"key"`
	CacheHit  bool        `json:"cache_hit"`
	Shared    bool        `json:"shared"`
	LatencyMS float64     `json:"latency_ms"`
	Headline  *float64    `json:"headline,omitempty"`
	Findings  []string    `json:"findings,omitempty"`
}

// pointLine is the NDJSON line for one completed grid point.
func pointLine(pt Point) PointLine {
	pl := PointLine{
		Point:     pt.Index,
		Params:    pt.Params,
		Key:       pt.Key,
		CacheHit:  pt.CacheHit,
		Shared:    pt.Shared,
		LatencyMS: pt.Latency.Seconds() * 1e3,
		Findings:  pt.Result.Findings,
	}
	if h, ok := Headline(pt.Result); ok {
		pl.Headline = &h
	}
	return pl
}

// SummaryLine is the final NDJSON line.
type SummaryLine struct {
	Summary struct {
		ID        string   `json:"id"`
		Points    int      `json:"points"`
		CacheHits int      `json:"cache_hits"`
		ElapsedMS float64  `json:"elapsed_ms"`
		Findings  []string `json:"findings,omitempty"`
		Report    string   `json:"report"`
	} `json:"summary"`
}

// summaryLine is the NDJSON line that closes a completed sweep.
func summaryLine(sum Summary) SummaryLine {
	var sl SummaryLine
	sl.Summary.ID = sum.ID
	sl.Summary.Points = sum.Points
	sl.Summary.CacheHits = sum.CacheHits
	sl.Summary.ElapsedMS = sum.Elapsed.Seconds() * 1e3
	sl.Summary.Findings = sum.Aggregate.Findings
	sl.Summary.Report = sum.Aggregate.Render()
	return sl
}

// Handler returns the POST /sweep endpoint backed by the server (an
// engine, or a router fanning points out to their owning replicas).
// Register it as "POST /sweep".
func Handler(srv Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A sweep request is a short ID plus a handful of axis strings;
		// cap the body so oversized payloads fail here instead of
		// feeding the grid expander.
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			status, code := http.StatusBadRequest, httpapi.CodeBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status, code = http.StatusRequestEntityTooLarge, httpapi.CodePayloadTooLarge
			}
			httpapi.WriteError(w, status, code, "bad request body: "+err.Error())
			return
		}
		sp, err := ParseSpec(req.ID, req.Params)
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest, err.Error())
			return
		}
		sp.Parallelism = req.Parallelism
		// Validate up front so schema errors surface as a proper HTTP
		// status; once streaming starts the status line is committed.
		if _, err := sp.Validate(); err != nil {
			status, code := http.StatusBadRequest, httpapi.CodeBadRequest
			if _, ok := core.ByID(req.ID); !ok {
				status, code = http.StatusNotFound, httpapi.CodeNotFound
			}
			httpapi.WriteError(w, status, code, err.Error())
			return
		}

		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		flusher, _ := w.(http.Flusher)
		// line writes one NDJSON line; hold leaves it in the response
		// buffer because the next line follows without a wait.
		line := func(v any, hold bool) error {
			if err := enc.Encode(v); err != nil {
				return err
			}
			if flusher != nil && !hold {
				flusher.Flush()
			}
			return nil
		}

		// Run under the request context: a gone client cancels queued AND
		// in-flight grid points (the engine's runner observes the
		// cancellation at its next iteration boundary), and the sweep's
		// points are admitted as batch class by the engine's scheduler.
		sum, err := Run(r.Context(), srv, sp, func(pt Point) error {
			// A gone client must stop the sweep, not leave it grinding
			// through the rest of the grid; Run aborts on the first emit
			// error.
			if err := r.Context().Err(); err != nil {
				return err
			}
			return line(pointLine(pt), pt.More)
		})
		if err != nil {
			// The status line is already out; report the failure as a
			// terminal NDJSON line instead.
			_ = line(map[string]string{"error": err.Error()}, false)
			return
		}
		_ = line(summaryLine(sum), false)
	})
}
