package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestRegistryWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_requests_total", "Requests.", func() float64 { return 3 })
	r.Gauge("t_depth", "Depth.", func() float64 { return 1.5 })
	r.CounterVec("t_hits_total", "Hits.", []string{"class"}, func() []Sample {
		return []Sample{{Values: []string{"interactive"}, Value: 2}, {Values: []string{"batch"}, Value: 0}}
	})
	r.Histogram("t_latency_seconds", "Latency.", []string{"class"}, func() []HistSample {
		return []HistSample{{
			Values:    []string{"batch"},
			Bounds:    []float64{0.001, 0.01},
			CumCounts: []uint64{1, 4},
			Count:     5,
			Sum:       0.25,
		}}
	})
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP t_requests_total Requests.",
		"# TYPE t_requests_total counter",
		"t_requests_total 3",
		"t_depth 1.5",
		`t_hits_total{class="interactive"} 2`,
		`t_hits_total{class="batch"} 0`,
		"# TYPE t_latency_seconds histogram",
		`t_latency_seconds_bucket{class="batch",le="0.001"} 1`,
		`t_latency_seconds_bucket{class="batch",le="0.01"} 4`,
		`t_latency_seconds_bucket{class="batch",le="+Inf"} 5`,
		`t_latency_seconds_sum{class="batch"} 0.25`,
		`t_latency_seconds_count{class="batch"} 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	cases := []func(r *Registry){
		func(r *Registry) { r.Counter("BadName_total", "x.", func() float64 { return 0 }) },
		func(r *Registry) { r.Counter("t_requests", "x.", func() float64 { return 0 }) },  // counter sans _total
		func(r *Registry) { r.Gauge("t_depth_total", "x.", func() float64 { return 0 }) }, // gauge with _total
		func(r *Registry) { r.Gauge("t_depth", "", func() float64 { return 0 }) },         // no help
		func(r *Registry) {
			r.GaugeVec("t_depth", "x.", []string{"Class"}, func() []Sample { return nil })
		},
		func(r *Registry) { // duplicate
			r.Gauge("t_depth", "x.", func() float64 { return 0 })
			r.Gauge("t_depth", "y.", func() float64 { return 0 })
		},
	}
	for i, reg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: registration did not panic", i)
				}
			}()
			reg(NewRegistry())
		}()
	}
}

func TestEventsRingAndSince(t *testing.T) {
	e := NewEvents(4)
	for i := 0; i < 6; i++ {
		e.Record(EventShed, map[string]string{"class": "batch"}, map[string]float64{"i": float64(i)})
	}
	if got := e.Total(); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	all := e.Since(0)
	if len(all) != 4 {
		t.Fatalf("ring retained %d, want 4", len(all))
	}
	if all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("ring holds seqs %d..%d, want 3..6", all[0].Seq, all[3].Seq)
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq != all[i-1].Seq+1 {
			t.Fatalf("ring out of order: %+v", all)
		}
	}
	if got := e.Since(5); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("Since(5) = %+v, want just seq 6", got)
	}
}

func TestEventsNilSafe(t *testing.T) {
	var e *Events
	e.Record(EventShed, nil, nil) // must not panic
	if e.Total() != 0 || e.Since(0) != nil {
		t.Fatal("nil Events should report empty")
	}
	e.SetSink(&bytes.Buffer{})
}

func TestEventsHandlerAndSink(t *testing.T) {
	e := NewEvents(16)
	var sink bytes.Buffer
	e.SetSink(&sink)
	e.Record(EventController, map[string]string{"action": "halve"},
		map[string]float64{"rate_before": 100, "rate_after": 50})

	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events?since=0", nil))
	var page struct {
		Next    uint64  `json:"next"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad /events JSON: %v", err)
	}
	if page.Next != 1 || len(page.Events) != 1 || page.Dropped != 0 {
		t.Fatalf("page = %+v", page)
	}
	ev := page.Events[0]
	if ev.Type != EventController || ev.Labels["action"] != "halve" || ev.Data["rate_after"] != 50 {
		t.Fatalf("event = %+v", ev)
	}
	if ts := time.Unix(0, ev.TimeUnixNano); ts.After(time.Now().Add(time.Second)) {
		t.Fatalf("bad timestamp: %v", ts)
	}
	// NDJSON sink got the same event as one line.
	line := strings.TrimSpace(sink.String())
	if strings.Count(line, "\n") != 0 || !strings.Contains(line, `"type":"controller"`) {
		t.Fatalf("sink line = %q", line)
	}
	// Bad cursor is a 400.
	rec = httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/events?since=x", nil))
	if rec.Code != 400 {
		t.Fatalf("bad since gave %d, want 400", rec.Code)
	}
}
