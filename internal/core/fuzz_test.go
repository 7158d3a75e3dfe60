package core

// Native Go fuzzing over the result codec: DecodeResult must never
// panic, and any payload it accepts must re-encode to a payload that
// decodes to the same result. Seeds come from the same representative
// results the round-trip tests use.

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/report"
)

// fuzzSeedResults mirrors the encode round-trip tests' corpus: every
// flag combination (table/figure/headline/findings present and absent).
func fuzzSeedResults() []Result {
	tbl := report.NewTable("seed", "a", "b")
	tbl.AddRow("1", "2")
	tbl.AddRow("x", "y")
	fig := report.NewFigure("seed fig", "x", "y")
	s := fig.AddSeries("s1")
	s.Add(1, 2)
	s.Add(3, 4)
	h := 42.5
	return []Result{
		{},
		{Findings: []string{"only a finding"}},
		{Table: tbl},
		{Figure: fig},
		{Headline: &h},
		{Table: tbl, Figure: fig, Headline: &h,
			Findings: []string{"f1", "", "a longer finding with 1.25e-3 numbers"}},
	}
}

func FuzzDecodeResult(f *testing.F) {
	for _, r := range fuzzSeedResults() {
		f.Add(r.Encode())
	}
	// A few adversarial seeds: bad flags, truncations, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x04, 1, 2, 3})
	f.Add(append(fuzzSeedResults()[5].Encode(), 0x00))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		// Accepted payloads must round-trip: re-encode, decode, and the
		// second encode must be byte-identical (the encoding is canonical
		// per Result — byte comparison is also NaN-safe, where a
		// struct-level DeepEqual is not).
		enc := r.Encode()
		r2, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded accepted payload fails to decode: %v\ninput: %x\nre-encoded: %x", err, data, enc)
		}
		if !bytes.Equal(enc, r2.Encode()) {
			t.Fatalf("canonical encoding is not a fixed point:\nfirst:  %x\nsecond: %x", enc, r2.Encode())
		}
		if r.Render() != r2.Render() {
			t.Fatal("round trip renders differently")
		}
	})
}

// e7OptimumFormat is the fmt format E7's first finding used to be written
// with, and the reference e7OptimumFinding is held to.
const e7OptimumFormat = "symmetric optimum at r=%.0f with %.1fx (interior optimum: neither sea-of-small-cores nor one big core)"

// FuzzE7OptimumFinding: for any (r, s) — non-finite, negative, subnormal,
// past 1e15 — the hand-appended finding is fmt's, byte for byte.
func FuzzE7OptimumFinding(f *testing.F) {
	for _, c := range e7FindingCases {
		f.Add(c.r, c.s)
	}
	f.Add(math.NaN(), math.Inf(1))
	f.Add(math.Inf(-1), -0.0)
	f.Add(5e-324, -9.95)
	f.Add(1e300, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, r, s float64) {
		if got, want := e7OptimumFinding(r, s), fmt.Sprintf(e7OptimumFormat, r, s); got != want {
			t.Fatalf("e7OptimumFinding(%v, %v)\n got  %q\n want %q", r, s, got, want)
		}
	})
}
