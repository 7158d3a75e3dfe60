package httpapi_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
)

// The one mapping from a serving error to its wire answer, row by row,
// under both fallbacks: what ErrorStatus returns, and what
// WriteServingError puts on the wire from it.
func TestErrorStatusTable(t *testing.T) {
	// What an error no row claims answers: 500 on a replica, 502 on the
	// front-end.
	fallbackCode := map[int]string{http.StatusInternalServerError: httpapi.CodeInternal,
		http.StatusBadGateway: httpapi.CodeUpstream}
	cases := []struct {
		name   string
		err    error
		status int // 0: the fallback
		code   string
		retry  time.Duration
		header string // Retry-After; "" = absent
	}{
		{"queue shed", &admit.ShedError{Class: admit.Interactive, RetryAfter: 1500 * time.Millisecond},
			503, httpapi.CodeQueueFull, 1500 * time.Millisecond, "2"},
		{"deadline shed", &admit.ShedError{Class: admit.Batch, Deadline: true, RetryAfter: time.Second},
			429, httpapi.CodeDeadlineUnmeetable, time.Second, "1"},
		{"shed with a zero hint", &admit.ShedError{Class: admit.Interactive},
			503, httpapi.CodeQueueFull, time.Millisecond, "1"},
		{"wrapped shed", fmt.Errorf("router: key %q failed on all 2 candidates: %w", "E7",
			&admit.ShedError{Class: admit.Interactive, RetryAfter: 40 * time.Millisecond}),
			503, httpapi.CodeQueueFull, 40 * time.Millisecond, "1"},
		{"deadline expired in flight", context.DeadlineExceeded, 504, httpapi.CodeDeadlineExceeded, 0, ""},
		{"caller gone", context.Canceled, 503, httpapi.CodeCanceled, 0, ""},
		{"body over the cap", fmt.Errorf("bad batch body: %w", &http.MaxBytesError{Limit: 1 << 20}),
			413, httpapi.CodePayloadTooLarge, 0, ""},
		{"unknown experiment", fmt.Errorf("%w %q", serve.ErrUnknownExperiment, "NOPE"),
			404, httpapi.CodeNotFound, 0, ""},
		{"bad params", fmt.Errorf("%w: %v", serve.ErrBadParams, "f out of range"),
			400, httpapi.CodeBadRequest, 0, ""},
		{"no backends", fmt.Errorf("%w for key %q (all ejected)", router.ErrNoBackends, "E7"),
			503, httpapi.CodeNoBackends, 0, ""},
		// A replica's answer relayed by the front-end: its own status, the
		// code CodeForStatus gives it, and the hint its frame carried.
		{"replica's deadline shed", fmt.Errorf("router: r0 /batch entry E7: %w",
			&httpapi.StatusError{Status: 429, Msg: "HTTP 429: shed", RetryAfter: 2 * time.Second}),
			429, httpapi.CodeDeadlineUnmeetable, 2 * time.Second, "2"},
		{"replica's queue shed", &httpapi.StatusError{Status: 503, Msg: "HTTP 503: shed", RetryAfter: 250 * time.Millisecond},
			503, httpapi.CodeQueueFull, 250 * time.Millisecond, "1"},
		{"replica's 404", &httpapi.StatusError{Status: 404, Msg: "HTTP 404: serve: unknown experiment"},
			404, httpapi.CodeNotFound, 0, ""},
		{"replica's 500", &httpapi.StatusError{Status: 500, Msg: "HTTP 500: boom"},
			500, httpapi.CodeInternal, 0, ""},
		{"unknown error", errors.New("disk on fire"), 0, "", 0, ""},
	}
	for _, c := range cases {
		for _, fallback := range []int{http.StatusInternalServerError, http.StatusBadGateway} {
			t.Run(fmt.Sprintf("%s/%d", c.name, fallback), func(t *testing.T) {
				status, code := c.status, c.code
				if status == 0 {
					status, code = fallback, fallbackCode[fallback]
				}
				gs, gc, gr := httpapi.ErrorStatus(c.err, fallback)
				if gs != status || gc != code || gr != c.retry {
					t.Fatalf("ErrorStatus = (%d, %q, %v), want (%d, %q, %v)", gs, gc, gr, status, code, c.retry)
				}
				rec := httptest.NewRecorder()
				httpapi.WriteServingError(rec, c.err, fallback)
				var env httpapi.ErrorEnvelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
					t.Fatalf("body is not the shared envelope: %v\n%s", err, rec.Body.String())
				}
				if rec.Code != status || rec.Header().Get("Retry-After") != c.header ||
					env.Error.Code != code || env.Error.Message != c.err.Error() ||
					env.Error.RetryAfterMS != c.retry.Milliseconds() {
					t.Fatalf("wrote %d Retry-After %q %+v, want %d %q code %q hint %v", rec.Code,
						rec.Header().Get("Retry-After"), env.Error, status, c.header, code, c.retry)
				}
			})
		}
	}
}
