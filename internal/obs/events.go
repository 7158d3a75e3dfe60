package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/httpapi"
)

// Event types the serving stack records. DESIGN.md §9's list of event
// types is generated from EventTypes.
const (
	// EventController is one QoS feedback-controller decision: labels
	// action=halve|reclaim|hold, data rate_before/rate_after/p99/slo.
	EventController = "controller"
	// EventShed is one admission shed: labels class, reason=queue|deadline,
	// data retry_after_seconds.
	EventShed = "shed"
	// EventEjection is one replica ejection: labels backend, data
	// consecutive_failures.
	EventEjection = "ejection"
	// EventReadmit is one replica re-admission after a successful probe:
	// labels backend.
	EventReadmit = "readmit"
	// EventControl is one accepted POST /control retune: labels carry the
	// applied knobs (batch_rate, slo_ms) as strings.
	EventControl = "control"
)

// EventTypes lists every event type the stack records (for docs gates).
func EventTypes() []string {
	return []string{EventController, EventShed, EventEjection, EventReadmit, EventControl}
}

// Event is one structured control-plane occurrence. Events serialize
// into BENCH reports and over GET /events, so load runs can assert on
// control behavior ("the controller recovered batch rate within 5s of
// storm end") instead of eyeballing logs.
type Event struct {
	// Seq is the event's position in the recorder's total stream — the
	// cursor GET /events?since= pages by. Strictly increasing; gaps mean
	// the bounded ring dropped older events between reads.
	Seq uint64 `json:"seq"`
	// TimeUnixNano stamps the recording time.
	TimeUnixNano int64 `json:"t_unix_nano"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Labels are the event's discrete dimensions (class, backend, action).
	Labels map[string]string `json:"labels,omitempty"`
	// Data are the event's numeric payload (rates, latencies, counts).
	Data map[string]float64 `json:"data,omitempty"`
}

// Events is a bounded ring of structured events plus an optional NDJSON
// sink. All methods are safe for concurrent use and safe on a nil
// receiver (recording into a nil *Events is a no-op), so subsystems can
// thread an event log without nil-guarding every call site.
type Events struct {
	mu   sync.Mutex
	buf  []Event // ring storage, len == cap once full
	cap  int
	next int    // ring write position
	seq  uint64 // total events ever recorded
	sink io.Writer
	now  func() time.Time
}

// DefaultEventCap bounds the ring when NewEvents is given no capacity.
const DefaultEventCap = 1024

// NewEvents returns a ring holding the most recent capacity events
// (<= 0 uses DefaultEventCap).
func NewEvents(capacity int) *Events {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Events{buf: make([]Event, 0, capacity), cap: capacity, now: time.Now}
}

// SetSink attaches an NDJSON sink: every subsequent event is appended to
// w as one JSON line, under the ring's lock (callers wanting async IO
// should hand in a buffered writer). Nil detaches.
func (e *Events) SetSink(w io.Writer) {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.sink = w
	e.mu.Unlock()
}

// Record appends one event. Nil-safe: a nil *Events drops it.
func (e *Events) Record(typ string, labels map[string]string, data map[string]float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	ev := Event{
		Seq:          e.seq + 1,
		TimeUnixNano: e.now().UnixNano(),
		Type:         typ,
		Labels:       labels,
		Data:         data,
	}
	e.seq++
	if len(e.buf) < e.cap {
		e.buf = append(e.buf, ev)
	} else {
		e.buf[e.next] = ev
	}
	e.next = (e.next + 1) % e.cap
	if e.sink != nil { // under the lock, as SetSink promises: a sink need not be safe for concurrent writes
		if line, err := json.Marshal(ev); err == nil {
			_, _ = e.sink.Write(append(line, '\n'))
		}
	}
	e.mu.Unlock()
}

// Total returns how many events have ever been recorded (the ring may
// hold fewer).
func (e *Events) Total() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// Since returns every retained event with Seq > since, oldest first.
// Since(0) returns the whole ring.
func (e *Events) Since(since uint64) []Event {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, 0, len(e.buf))
	// Ring order: oldest starts at next when full, at 0 while filling.
	start := 0
	if len(e.buf) == e.cap {
		start = e.next
	}
	for i := 0; i < len(e.buf); i++ {
		ev := e.buf[(start+i)%len(e.buf)]
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out
}

// eventsPage is the GET /events response envelope.
type eventsPage struct {
	// Next is the cursor to pass as ?since= to receive only newer events.
	Next uint64 `json:"next"`
	// Dropped reports how many events have aged out of the ring entirely
	// (recorded minus retained) — nonzero means a pollers gap.
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}

// Handler serves GET /events?since=N: all retained events with Seq > N
// plus the next cursor.
func (e *Events) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			httpapi.WriteError(w, http.StatusMethodNotAllowed, httpapi.CodeMethodNotAllowed, "method not allowed")
			return
		}
		var since uint64
		if s := req.URL.Query().Get("since"); s != "" {
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				httpapi.WriteError(w, http.StatusBadRequest, httpapi.CodeBadRequest,
					"bad since cursor (want an unsigned integer)")
				return
			}
			since = v
		}
		evs := e.Since(since)
		page := eventsPage{Next: e.Total(), Events: evs}
		if e != nil {
			e.mu.Lock()
			page.Dropped = e.seq - uint64(len(e.buf))
			e.mu.Unlock()
		}
		if evs == nil {
			page.Events = []Event{}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
}
