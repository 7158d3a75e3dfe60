package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/admit"
)

// Error codes of the shared envelope. The vocabulary is deliberately
// small and stable: clients branch on the code, humans read the message.
const (
	CodeBadRequest         = "bad_request"         // 400: malformed params, headers, or body
	CodeNotFound           = "not_found"           // 404: unknown experiment
	CodeMethodNotAllowed   = "method_not_allowed"  // 405
	CodePayloadTooLarge    = "payload_too_large"   // 413: request body over the cap
	CodeDeadlineUnmeetable = "deadline_unmeetable" // 429: projected wait exceeds the deadline budget
	CodeQueueFull          = "queue_full"          // 503: admission queue shed
	CodeCanceled           = "canceled"            // 503: caller gone mid-flight
	CodeNoBackends         = "no_backends"         // 503: every candidate replica ejected
	CodeDeadlineExceeded   = "deadline_exceeded"   // 504: the deadline expired in flight
	CodeUpstream           = "upstream_error"      // 5xx passthrough from a replica
	CodeInternal           = "internal"            // 500
)

// ErrorDetail is the body of the shared error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS mirrors the Retry-After header at millisecond
	// precision (the header rounds up to whole seconds); 0 means no hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the one JSON error shape every error path on every
// face of the HTTP API answers with:
//
//	{"error":{"code":"queue_full","message":"...","retry_after_ms":1000}}
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// WriteError writes the shared envelope with the given status and code.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, ErrorEnvelope{Error: ErrorDetail{Code: code, Message: msg}})
}

// StatusError is a serving error that carries its own wire answer: the
// engine's and the router's sentinels, and a replica's answer relayed
// through the front-end (with the backoff hint its frame carried).
type StatusError struct {
	Status     int
	Code       string // the envelope code; "" is CodeForStatus(Status)
	Msg        string
	RetryAfter time.Duration // the backoff hint; 0 is none
}

func (e *StatusError) Error() string { return e.Msg }

// ErrorStatus is the one mapping from a serving error to its wire answer
// (status, envelope code, retry hint; 0 is none) every face writes, every
// batch entry carries and the router's verdict reads; an error no case
// claims gets fallback (500 on a replica, 502 on the front-end).
func ErrorStatus(err error, fallback int) (status int, code string, retryAfter time.Duration) {
	var shed *admit.ShedError
	var tooBig *http.MaxBytesError
	var se *StatusError
	switch status = fallback; {
	case errors.As(err, &shed):
		status, retryAfter = http.StatusServiceUnavailable, max(shed.RetryAfter, time.Millisecond)
		if shed.Deadline {
			status = http.StatusTooManyRequests
		}
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status, code = http.StatusServiceUnavailable, CodeCanceled
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &se):
		status, code, retryAfter = se.Status, se.Code, se.RetryAfter
	}
	if code == "" {
		code = CodeForStatus(status)
	}
	return status, code, retryAfter
}

// WriteServingError answers err in the shared envelope as ErrorStatus maps
// it: Retry-After in whole seconds rounded up (the HTTP-level contract),
// retry_after_ms to the millisecond (at least 1).
func WriteServingError(w http.ResponseWriter, err error, fallback int) {
	status, code, retryAfter := ErrorStatus(err, fallback)
	d := ErrorDetail{Code: code, Message: err.Error()}
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retryAfter.Seconds()))))
		d.RetryAfterMS = max(retryAfter.Milliseconds(), 1)
	}
	WriteJSON(w, status, ErrorEnvelope{Error: d})
}

// statusCodes is the envelope code each status carries unless its error
// names another (503 canceled, 503 no_backends).
var statusCodes = map[int]string{
	http.StatusBadRequest: CodeBadRequest, http.StatusNotFound: CodeNotFound,
	http.StatusMethodNotAllowed: CodeMethodNotAllowed, http.StatusRequestEntityTooLarge: CodePayloadTooLarge,
	http.StatusTooManyRequests: CodeDeadlineUnmeetable, http.StatusServiceUnavailable: CodeQueueFull,
	http.StatusGatewayTimeout: CodeDeadlineExceeded, http.StatusInternalServerError: CodeInternal,
}

// CodeForStatus is a status's envelope code (upstream_error if it has
// none), so a replica's status relayed by the router keeps its code.
func CodeForStatus(status int) string {
	if code, ok := statusCodes[status]; ok {
		return code
	}
	return CodeUpstream
}

// WriteJSON writes v as an indented JSON response — shared by the
// engine's handlers and the routing front-end so both faces of the API
// encode identically.
func WriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
