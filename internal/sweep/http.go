package sweep

// POST /sweep — the HTTP face of the sweep engine. The request names an
// experiment and its axes; the response streams NDJSON: one line per
// completed grid point (in grid order) and one final summary line
// carrying the aggregated report. Lines are appended by hand (httpapi's
// JSON appender; PointLine and SummaryLine are what they decode into) to
// one pooled buffer, which goes out in one Write and a flush when Run is
// about to wait on the server — after a wave's last point, the summary
// line, the terminal error line — not line by line: no line is ever held
// across a wait for compute, so a client sees every point as soon as the
// server has nothing newer to add. Repeat sweeps are served from the
// engine's memoizing cache, so a hot sweep streams at cache speed.
// cmd/arch21d mounts this next to the engine's own handlers.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

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
	// Parallelism sizes the waves the grid is served in: 2*Parallelism
	// points per batch call (default 32, at most 64). It does not bound
	// the points in flight; the server's workers do.
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

// appendFindings appends the omitempty "findings" member.
func appendFindings(b []byte, findings []string) []byte {
	if len(findings) == 0 {
		return b
	}
	b = append(b, `,"findings":[`...)
	for _, f := range findings {
		b = append(httpapi.AppendJSONString(b, f), ',')
	}
	b[len(b)-1] = ']' // over the last comma
	return b
}

// paramsText is the point line's "params" object, formatted once per
// sweep: each axis value's `"name":value` member, the axes in name order
// (json's order for a map's keys). A point picks its members by its grid
// index, row-major as Grid expands it.
type paramsText []paramsAxis

type paramsAxis struct {
	name    string
	stride  int      // grid points per step along this axis
	members []string // `"name":value` per axis value
}

func newParamsText(axes []Axis) paramsText {
	text := make(paramsText, len(axes))
	stride := 1
	for a := len(axes) - 1; a >= 0; a-- {
		ax := &axes[a]
		text[a] = paramsAxis{name: ax.Name, stride: stride, members: make([]string, len(ax.Values))}
		stride *= len(ax.Values)
		var b []byte
		for k, v := range ax.Values {
			b = append(httpapi.AppendJSONString(b[:0], ax.Name), ':')
			b, _ = httpapi.AppendJSONFloat(b, v) // Validate let only finite values in
			text[a].members[k] = string(b)
		}
	}
	slices.SortFunc(text, func(x, y paramsAxis) int { return strings.Compare(x.name, y.name) })
	return text
}

// appendPointLine appends one completed grid point as the NDJSON line
// json.Encoder writes for its PointLine, or appends nothing and returns
// json's own error when a number is not finite.
func appendPointLine(b []byte, pt *Point) ([]byte, error) {
	line := len(b)
	b = strconv.AppendInt(append(b, `{"point":`...), int64(pt.Index), 10)
	b = append(b, `,"params":{`...)
	for _, ax := range pt.paramsText {
		b = append(append(b, ax.members[pt.Index/ax.stride%len(ax.members)]...), ',')
	}
	b[len(b)-1] = '}' // over the last comma: a grid point has at least one axis
	b = httpapi.AppendJSONString(append(b, `,"key":`...), pt.Key)
	b = strconv.AppendBool(append(b, `,"cache_hit":`...), pt.CacheHit)
	b = strconv.AppendBool(append(b, `,"shared":`...), pt.Shared)
	b, err := httpapi.AppendJSONFloat(append(b, `,"latency_ms":`...), pt.Latency.Seconds()*1e3)
	if err == nil && pt.hasHeadline {
		b, err = httpapi.AppendJSONFloat(append(b, `,"headline":`...), pt.headline)
	}
	if err != nil {
		return b[:line], err
	}
	return append(appendFindings(b, pt.Result.Findings), "}\n"...), nil
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

// appendSummaryLine appends the line that closes a completed sweep, as
// json.Encoder writes its SummaryLine; errors as appendPointLine.
func appendSummaryLine(b []byte, sum *Summary) ([]byte, error) {
	line := len(b)
	b = httpapi.AppendJSONString(append(b, `{"summary":{"id":`...), sum.ID)
	b = strconv.AppendInt(append(b, `,"points":`...), int64(sum.Points), 10)
	b = strconv.AppendInt(append(b, `,"cache_hits":`...), int64(sum.CacheHits), 10)
	b, err := httpapi.AppendJSONFloat(append(b, `,"elapsed_ms":`...), sum.Elapsed.Seconds()*1e3)
	if err != nil {
		return b[:line], err
	}
	b = appendFindings(b, sum.Aggregate.Findings)
	b = httpapi.AppendJSONString(append(b, `,"report":`...), sum.Aggregate.Render())
	return append(b, "}}\n"...), nil
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
			httpapi.WriteServingError(w, fmt.Errorf("bad request body: %w", err), http.StatusBadRequest)
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
		flusher, _ := w.(http.Flusher)
		buf := httpapi.GetBuffer()
		out := (*buf)[:0]
		defer func() {
			if cap(out) <= 64<<10 { // a 4096-row report is not for the pool
				*buf = out
				httpapi.PutBuffer(buf)
			}
		}()
		// send writes the gathered lines in one Write and flushes them.
		send := func() error {
			_, err := w.Write(out)
			out = out[:0]
			if flusher != nil {
				flusher.Flush()
			}
			return err
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
			var err error
			// A point with More set stays in the buffer: the next line
			// follows without a wait.
			if out, err = appendPointLine(out, &pt); err != nil || pt.More {
				return err
			}
			return send()
		})
		if err == nil {
			out, err = appendSummaryLine(out, &sum)
		}
		if err != nil {
			// The status line is already out; report the failure as a
			// terminal NDJSON line instead.
			out = append(httpapi.AppendJSONString(append(out, `{"error":`...), err.Error()), "}\n"...)
		}
		_ = send()
	})
}
