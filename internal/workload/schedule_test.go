package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestParseRateSchedule(t *testing.T) {
	sched, err := ParseRateSchedule("60@2s, 60:240@3s ,240@500ms")
	if err != nil {
		t.Fatalf("ParseRateSchedule: %v", err)
	}
	want := []RateSegment{
		{StartRate: 60, EndRate: 60, DurationSeconds: 2},
		{StartRate: 60, EndRate: 240, DurationSeconds: 3},
		{StartRate: 240, EndRate: 240, DurationSeconds: 0.5},
	}
	if len(sched.Segments) != len(want) {
		t.Fatalf("got %d segments, want %d", len(sched.Segments), len(want))
	}
	for i, seg := range sched.Segments {
		if seg != want[i] {
			t.Errorf("segment %d = %+v, want %+v", i, seg, want[i])
		}
	}
	if d := sched.Duration(); d != 5.5 {
		t.Errorf("Duration = %g, want 5.5", d)
	}
	if m := sched.MaxRate(); m != 240 {
		t.Errorf("MaxRate = %g, want 240", m)
	}
	// Round-trip through String.
	again, err := ParseRateSchedule(sched.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sched.String(), err)
	}
	if len(again.Segments) != len(sched.Segments) {
		t.Errorf("round-trip lost segments: %q", sched.String())
	}
}

func TestParseRateScheduleRejects(t *testing.T) {
	bad := []string{
		"",               // empty
		"100",            // no duration
		"100@",           // empty duration
		"100@0s",         // zero duration
		"100@-1s",        // negative duration
		"-5@1s",          // negative rate
		"NaN@1s",         // non-finite rate
		"Inf@1s",         // non-finite rate
		"0:Inf@1s",       // non-finite ramp endpoint
		"1:NaN@1s",       // non-finite ramp endpoint
		"1e300@1s",       // rate over cap
		"0@1s,0:0@2s",    // all-zero schedule
		"100@30h",        // span over cap
		"100@1s,,200@1s", // empty segment
		"10:20:30@1s",    // malformed ramp
		strings.Repeat("1@1s,", MaxScheduleSegments) + "1@1s", // too many segments
	}
	for _, spec := range bad {
		if _, err := ParseRateSchedule(spec); err == nil {
			t.Errorf("ParseRateSchedule(%q) accepted, want error", spec)
		}
	}
}

func TestRateScheduleRateInterpolates(t *testing.T) {
	sched := MustRateSchedule("100@2s,100:300@2s,300@1s")
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 100}, {1.5, 100}, {2, 100}, {3, 200}, {4, 300}, {4.5, 300}, {5, 0}, {99, 0},
	}
	for _, c := range cases {
		if got := sched.Rate(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Rate(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := sched.ExpectedRequests(); math.Abs(got-(200+400+300)) > 1e-9 {
		t.Errorf("ExpectedRequests = %g, want 900", got)
	}
	if si := sched.SegmentAt(0.5); si != 0 {
		t.Errorf("SegmentAt(0.5) = %d, want 0", si)
	}
	if si := sched.SegmentAt(3); si != 1 {
		t.Errorf("SegmentAt(3) = %d, want 1", si)
	}
	if si := sched.SegmentAt(1e9); si != 2 {
		t.Errorf("SegmentAt(+inf-ish) = %d, want 2 (clamped)", si)
	}
}

func TestRateScheduleScaledTo(t *testing.T) {
	sched := MustRateSchedule("100@2s,500@3s")
	scaled := sched.ScaledTo(10)
	if d := scaled.Duration(); math.Abs(d-10) > 1e-9 {
		t.Fatalf("ScaledTo(10).Duration = %g", d)
	}
	// Shape is preserved: the step still happens 40% of the way in.
	if got := scaled.Rate(3.9); got != 100 {
		t.Errorf("Rate(3.9) = %g, want 100", got)
	}
	if got := scaled.Rate(4.1); got != 500 {
		t.Errorf("Rate(4.1) = %g, want 500", got)
	}
	if same := sched.ScaledTo(0); same.Duration() != sched.Duration() {
		t.Errorf("ScaledTo(0) should be a no-op")
	}
}

func TestScheduledZipfTraceFollowsSchedule(t *testing.T) {
	// A 10x step: arrival mass inside the step window should dominate.
	sched := MustRateSchedule("50@2s,500@1s,50@2s")
	rng := stats.NewRNG(42)
	tr := ScheduledZipfTrace(sched, 1<<20, 64, 1.1, false, rng)
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	exp := sched.ExpectedRequests() // 50*4 + 500 = 700
	if f := float64(len(tr)); f < 0.85*exp || f > 1.15*exp {
		t.Fatalf("trace has %d arrivals, expected ~%g", len(tr), exp)
	}
	var inStep, outStep int
	last := 0.0
	for _, rq := range tr {
		if rq.Arrival < last {
			t.Fatal("arrivals not time-ordered")
		}
		last = rq.Arrival
		if rq.Arrival >= 2 && rq.Arrival < 3 {
			inStep++
		} else {
			outStep++
		}
		if rq.Key < 1 || rq.Key > 64 {
			t.Fatalf("key %d outside [1,64]", rq.Key)
		}
	}
	// Step second carries 500 expected arrivals vs 200 outside.
	if inStep < 2*outStep {
		t.Errorf("step window got %d arrivals vs %d outside; step not visible", inStep, outStep)
	}
	if span := tr[len(tr)-1].Arrival - tr[0].Arrival; span > sched.Duration() {
		t.Errorf("trace span %g exceeds schedule span %g", span, sched.Duration())
	}
}

func TestScheduledZipfTraceChurn(t *testing.T) {
	// With heavy skew and no churn, one key dominates the whole trace.
	// With churn, the dominant key must change across segment boundaries.
	sched := MustRateSchedule("400@1s,400@1s,400@1s")
	hotKey := func(tr RequestTrace, lo, hi float64) int {
		counts := map[int]int{}
		best, bestN := 0, -1
		for _, rq := range tr {
			if rq.Arrival < lo || rq.Arrival >= hi {
				continue
			}
			counts[rq.Key]++
			if counts[rq.Key] > bestN {
				best, bestN = rq.Key, counts[rq.Key]
			}
		}
		return best
	}

	plain := ScheduledZipfTrace(sched, 1<<20, 512, 1.4, false, stats.NewRNG(7))
	if h0, h1, h2 := hotKey(plain, 0, 1), hotKey(plain, 1, 2), hotKey(plain, 2, 3); h0 != h1 || h1 != h2 {
		t.Errorf("without churn the hot key should be stable; got %d/%d/%d", h0, h1, h2)
	}
	churned := ScheduledZipfTrace(sched, 1<<20, 512, 1.4, true, stats.NewRNG(7))
	h0, h1, h2 := hotKey(churned, 0, 1), hotKey(churned, 1, 2), hotKey(churned, 2, 3)
	if h0 == h1 && h1 == h2 {
		t.Errorf("with churn the hot key never moved (stayed %d across all three segments)", h0)
	}

	// Determinism: same seed, same trace.
	again := ScheduledZipfTrace(sched, 1<<20, 512, 1.4, true, stats.NewRNG(7))
	if len(again) != len(churned) {
		t.Fatalf("non-deterministic length: %d vs %d", len(again), len(churned))
	}
	for i := range again {
		if again[i] != churned[i] {
			t.Fatalf("non-deterministic at %d: %+v vs %+v", i, again[i], churned[i])
		}
	}
}

func TestScheduledZipfTraceBounds(t *testing.T) {
	sched := MustRateSchedule("1000@10s")
	tr := ScheduledZipfTrace(sched, 100, 8, 0, false, stats.NewRNG(1))
	if len(tr) != 100 {
		t.Fatalf("maxN not honored: got %d", len(tr))
	}
	// skew <= 0 cycles keys round-robin over [1, nKeys].
	for i, rq := range tr {
		if want := i%8 + 1; rq.Key != want {
			t.Fatalf("round-robin key %d = %d, want %d", i, rq.Key, want)
		}
	}
	if got := ScheduledZipfTrace(sched, 0, 8, 0, false, stats.NewRNG(1)); got != nil {
		t.Errorf("maxN=0 should yield nil")
	}
	if got := ScheduledZipfTrace(sched, 10, 0, 0, false, stats.NewRNG(1)); got != nil {
		t.Errorf("nKeys=0 should yield nil")
	}
	if got := ScheduledZipfTrace(RateSchedule{}, 10, 8, 0, false, stats.NewRNG(1)); got != nil {
		t.Errorf("invalid schedule should yield nil")
	}
}
