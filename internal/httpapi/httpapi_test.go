package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/admit"
)

// The header parse table: one contract for every face of the API.
func TestRequestContextTable(t *testing.T) {
	cases := []struct {
		name    string
		headers map[string]string
		wantErr bool
		check   func(t *testing.T, ctx context.Context)
	}{
		{
			name:    "defaults",
			headers: nil,
			check: func(t *testing.T, ctx context.Context) {
				if c := admit.ClassFrom(ctx); c != admit.Interactive {
					t.Fatalf("default class = %v, want interactive", c)
				}
				if tn := admit.TenantFrom(ctx); tn != "" {
					t.Fatalf("default tenant = %q, want empty", tn)
				}
				if IsHedge(ctx) {
					t.Fatal("unmarked request parsed as hedge")
				}
				if _, ok := ctx.Deadline(); ok {
					t.Fatal("no deadline header should mean no deadline")
				}
			},
		},
		{
			name:    "batch class",
			headers: map[string]string{admit.HeaderClass: "batch"},
			check: func(t *testing.T, ctx context.Context) {
				if c := admit.ClassFrom(ctx); c != admit.Batch {
					t.Fatalf("class = %v, want batch", c)
				}
			},
		},
		{
			name:    "bad class",
			headers: map[string]string{admit.HeaderClass: "premium"},
			wantErr: true,
		},
		{
			name:    "tenant rides along",
			headers: map[string]string{admit.HeaderTenant: "team-a"},
			check: func(t *testing.T, ctx context.Context) {
				if tn := admit.TenantFrom(ctx); tn != "team-a" {
					t.Fatalf("tenant = %q, want team-a", tn)
				}
			},
		},
		{
			name:    "deadline becomes a context deadline",
			headers: map[string]string{admit.HeaderDeadlineMS: "250"},
			check: func(t *testing.T, ctx context.Context) {
				dl, ok := ctx.Deadline()
				if !ok {
					t.Fatal("deadline header dropped")
				}
				if rem := time.Until(dl); rem <= 0 || rem > 250*time.Millisecond {
					t.Fatalf("remaining budget %v, want (0, 250ms]", rem)
				}
			},
		},
		{name: "bad deadline", headers: map[string]string{admit.HeaderDeadlineMS: "soon"}, wantErr: true},
		{name: "negative deadline", headers: map[string]string{admit.HeaderDeadlineMS: "-5"}, wantErr: true},
		{name: "zero deadline", headers: map[string]string{admit.HeaderDeadlineMS: "0"}, wantErr: true},
		{name: "infinite deadline", headers: map[string]string{admit.HeaderDeadlineMS: "+Inf"}, wantErr: true},
		{
			name:    "hedge marker",
			headers: map[string]string{HeaderHedge: "1"},
			check: func(t *testing.T, ctx context.Context) {
				if !IsHedge(ctx) {
					t.Fatal("hedge marker dropped")
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/v1/run/x", nil)
			for k, v := range tc.headers {
				req.Header.Set(k, v)
			}
			ctx, cancel, err := RequestContext(req)
			if tc.wantErr {
				if err == nil {
					cancel()
					t.Fatal("want error, got none")
				}
				return
			}
			if err != nil {
				t.Fatalf("RequestContext: %v", err)
			}
			defer cancel()
			tc.check(t, ctx)
		})
	}
}

// Forward/RequestContext round-trip: what one hop stamps, the next hop
// parses back — with the deadline budget decremented by the hop's slice.
func TestForwardRoundTrip(t *testing.T) {
	ctx := admit.WithClass(context.Background(), admit.Batch)
	ctx = admit.WithTenant(ctx, "team-b")
	ctx = WithHedge(ctx)
	ctx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()

	out := httptest.NewRequest(http.MethodGet, "/v1/run/x", nil)
	if err := Forward(out, ctx, 5*time.Millisecond); err != nil {
		t.Fatalf("Forward: %v", err)
	}
	if got := out.Header.Get(admit.HeaderClass); got != "batch" {
		t.Fatalf("forwarded class = %q, want batch", got)
	}
	if got := out.Header.Get(admit.HeaderTenant); got != "team-b" {
		t.Fatalf("forwarded tenant = %q, want team-b", got)
	}
	if got := out.Header.Get(HeaderHedge); got != "1" {
		t.Fatalf("forwarded hedge marker = %q, want 1", got)
	}

	ctx2, cancel2, err := RequestContext(out)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	defer cancel2()
	if admit.ClassFrom(ctx2) != admit.Batch || admit.TenantFrom(ctx2) != "team-b" || !IsHedge(ctx2) {
		t.Fatal("round trip lost part of the QoS envelope")
	}
	dl, ok := ctx2.Deadline()
	if !ok {
		t.Fatal("round trip lost the deadline")
	}
	if rem := time.Until(dl); rem > 495*time.Millisecond {
		t.Fatalf("hop budget not decremented: remaining %v", rem)
	}
}

// A budget that cannot survive the hop sheds at the sender as a
// deadline verdict, not a wire round-trip.
func TestForwardShedsExhaustedBudget(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	out := httptest.NewRequest(http.MethodGet, "/run/x", nil)
	err := Forward(out, ctx, 5*time.Millisecond)
	var shed *admit.ShedError
	if !errors.As(err, &shed) || !shed.Deadline {
		t.Fatalf("want deadline ShedError, got %v", err)
	}
}

// The envelope table: status, code, Retry-After header, and the
// millisecond mirror in the body.
func TestErrorEnvelopeTable(t *testing.T) {
	cases := []struct {
		name       string
		write      func(w http.ResponseWriter)
		wantStatus int
		wantCode   string
		wantRetry  string // "" = header absent
		wantMS     int64
	}{
		{
			name:       "plain error",
			write:      func(w http.ResponseWriter) { WriteError(w, 400, CodeBadRequest, "no") },
			wantStatus: 400, wantCode: CodeBadRequest,
		},
		{
			name: "retry hint rounds the header up, keeps ms in the body",
			write: func(w http.ResponseWriter) {
				WriteServingError(w, &StatusError{Status: 503, Msg: "full", RetryAfter: 250 * time.Millisecond}, 500)
			},
			wantStatus: 503, wantCode: CodeQueueFull, wantRetry: "1", wantMS: 250,
		},
		{
			name: "queue shed",
			write: func(w http.ResponseWriter) {
				WriteServingError(w, &admit.ShedError{Class: admit.Interactive, RetryAfter: 1500 * time.Millisecond}, 500)
			},
			wantStatus: 503, wantCode: CodeQueueFull, wantRetry: "2", wantMS: 1500,
		},
		{
			name: "deadline shed",
			write: func(w http.ResponseWriter) {
				WriteServingError(w, &admit.ShedError{Class: admit.Interactive, Deadline: true, RetryAfter: time.Second}, 500)
			},
			wantStatus: 429, wantCode: CodeDeadlineUnmeetable, wantRetry: "1", wantMS: 1000,
		},
		{
			name:       "deadline expired in flight",
			write:      func(w http.ResponseWriter) { WriteServingError(w, context.DeadlineExceeded, 500) },
			wantStatus: 504, wantCode: CodeDeadlineExceeded,
		},
		{
			name:       "caller gone",
			write:      func(w http.ResponseWriter) { WriteServingError(w, context.Canceled, 500) },
			wantStatus: 503, wantCode: CodeCanceled,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			tc.write(rec)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantRetry {
				t.Fatalf("Retry-After = %q, want %q", got, tc.wantRetry)
			}
			var env ErrorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("body is not the shared envelope: %v\n%s", err, rec.Body.String())
			}
			if env.Error.Code != tc.wantCode {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Fatal("envelope message empty")
			}
			if env.Error.RetryAfterMS != tc.wantMS {
				t.Fatalf("retry_after_ms = %d, want %d", env.Error.RetryAfterMS, tc.wantMS)
			}
		})
	}
}

// A plain error is not a QoS verdict: the mapping leaves it to the
// caller's fallback, with no retry hint.
func TestWriteQoSErrorIgnoresOtherErrors(t *testing.T) {
	for _, fallback := range []int{http.StatusInternalServerError, http.StatusBadGateway} {
		rec := httptest.NewRecorder()
		WriteServingError(rec, errors.New("disk on fire"), fallback)
		if rec.Code != fallback || rec.Header().Get("Retry-After") != "" {
			t.Fatalf("fallback %d: a plain error answered %d, Retry-After %q", fallback, rec.Code, rec.Header().Get("Retry-After"))
		}
	}
}

// Mount serves the same handler under the legacy path and its /v1 alias.
func TestMountVersionedAliases(t *testing.T) {
	mux := http.NewServeMux()
	MountFunc(mux, "GET /run/{id}", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("id=" + r.PathValue("id")))
	})
	for _, path := range []string{"/run/x7", "/v1/run/x7"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != 200 || !strings.Contains(rec.Body.String(), "id=x7") {
			t.Fatalf("%s: status %d body %q", path, rec.Code, rec.Body.String())
		}
	}
	// The alias keeps the method restriction.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run/x7", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST on a GET-only alias: status %d, want 405", rec.Code)
	}
}
