package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/report"
)

func sampleResult() Result {
	t := report.NewTable("sample", "metric", "value")
	t.AddRow("speedup", "2.5")
	t.Note = "a note"
	f := report.NewFigure("fig", "x", "y")
	s := f.AddSeries("s1")
	s.Add(1, 2)
	s.Add(3, 4.5)
	r := Result{
		Table:    t,
		Figure:   f,
		Findings: []string{"finding one", "finding two: 63% > 50%"},
	}
	r.SetHeadline(63.2)
	return r
}

func TestResultEncodeDecodeRoundTrip(t *testing.T) {
	cases := map[string]Result{
		"table+figure+findings": sampleResult(),
		"table-only":            {Table: report.NewTable("t", "h")},
		"figure-only":           {Figure: report.NewFigure("f", "x", "y")},
		"findings-only":         {Findings: []string{"just text"}},
		"empty":                 {},
	}
	for name, r := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := DecodeResult(r.Encode())
			if err != nil {
				t.Fatalf("DecodeResult: %v", err)
			}
			if got.Render() != r.Render() {
				t.Fatalf("render mismatch:\n--- got ---\n%s\n--- want ---\n%s",
					got.Render(), r.Render())
			}
			if len(got.Findings) != len(r.Findings) {
				t.Fatalf("findings: got %d want %d", len(got.Findings), len(r.Findings))
			}
			switch {
			case (got.Headline == nil) != (r.Headline == nil):
				t.Fatalf("headline presence lost: got %v want %v", got.Headline, r.Headline)
			case got.Headline != nil && *got.Headline != *r.Headline:
				t.Fatalf("headline: got %v want %v", *got.Headline, *r.Headline)
			}
		})
	}
}

// referenceTableEncode and referenceFigureEncode write report's codec
// the way it was written before Encode sized its buffer: growing from 64
// bytes, one append at a time.
func referenceTableEncode(t *report.Table) []byte {
	b := append(make([]byte, 0, 64), 0x01)
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	str(t.Title)
	str(t.Note)
	b = binary.AppendUvarint(b, uint64(len(t.Headers)))
	for _, h := range t.Headers {
		str(h)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Rows)))
	for _, r := range t.Rows {
		b = binary.AppendUvarint(b, uint64(len(r)))
		for _, c := range r {
			str(c)
		}
	}
	return b
}

func referenceFigureEncode(f *report.Figure) []byte {
	b := append(make([]byte, 0, 64), 0x02)
	str := func(s string) { b = append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	str(f.Title)
	str(f.XLabel)
	str(f.YLabel)
	str(f.Note)
	b = binary.AppendUvarint(b, uint64(len(f.Series)))
	for _, s := range f.Series {
		str(s.Name)
		b = binary.AppendUvarint(b, uint64(len(s.Points)))
		for _, p := range s.Points {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
		}
	}
	return b
}

// referenceResultEncode is Result.Encode as it was before AppendEncode:
// each chunk encoded apart, then copied after its length prefix into a
// buffer sized with a varint's worst case for every prefix.
func referenceResultEncode(r Result) []byte {
	var flags byte
	var tbl, fig []byte
	if r.Table != nil {
		flags |= flagTable
		tbl = referenceTableEncode(r.Table)
	}
	if r.Figure != nil {
		flags |= flagFigure
		fig = referenceFigureEncode(r.Figure)
	}
	if r.Headline != nil {
		flags |= flagHeadline
	}
	size := 1 + 8 + len(tbl) + len(fig) + binary.MaxVarintLen64*(3+len(r.Findings))
	for _, f := range r.Findings {
		size += len(f)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, flags)
	if r.Headline != nil {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(*r.Headline))
		buf = append(buf, w[:]...)
	}
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	if r.Table != nil {
		putUvarint(uint64(len(tbl)))
		buf = append(buf, tbl...)
	}
	if r.Figure != nil {
		putUvarint(uint64(len(fig)))
		buf = append(buf, fig...)
	}
	putUvarint(uint64(len(r.Findings)))
	for _, f := range r.Findings {
		putUvarint(uint64(len(f)))
		buf = append(buf, f...)
	}
	return buf
}

// checkEncodeMatchesReference holds Encode and AppendEncode to the
// reference bytes: Encode's buffer is exactly the payload's length, and
// AppendEncode after a prefix (with and without spare capacity behind it)
// leaves the prefix and appends the payload.
func checkEncodeMatchesReference(t *testing.T, name string, r Result) {
	t.Helper()
	want := referenceResultEncode(r)
	if enc := r.Encode(); !bytes.Equal(enc, want) || cap(enc) != len(enc) {
		t.Fatalf("%s: Encode (%d bytes, cap %d) differs from the reference (%d bytes)", name, len(enc), cap(enc), len(want))
	}
	for _, prefix := range [][]byte{nil, []byte("prefix"), append(make([]byte, 0, len(want)+64), "roomy"...)} {
		full := append(append([]byte(nil), prefix...), want...)
		if got := r.AppendEncode(prefix); !bytes.Equal(got, full) {
			t.Fatalf("%s: AppendEncode after %q is not the prefix and the reference", name, prefix)
		}
	}
}

// Every registry default (the shared pass) and E7 at its schema's four
// corners encode to the reference bytes. bces 4096 is E7's longest
// r-ladder; its title is report.FormatFloat's at every corner.
func TestResultEncodeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the shared default pass; skipped in -short")
	}
	for _, e := range Registry() {
		checkEncodeMatchesReference(t, e.ID, defaultResults()[e.ID])
	}
	exp, _ := ByID("E7")
	for _, f := range []float64{0.5, 0.9999} {
		for _, n := range []float64{16, 4096} {
			p := Params{"f": f, "bces": n}
			res, _, err := exp.RunWith(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("E7 %v", p)
			checkEncodeMatchesReference(t, name, res)
			if want := "E7: Hill-Marty speedup on a " + strconv.Itoa(int(n)) + "-BCE chip, f=" + report.FormatFloat(f); res.Figure.Title != want {
				t.Fatalf("%s: title %q, want %q", name, res.Figure.Title, want)
			}
			if rungs := len(res.Figure.Series[0].Points); n == 4096 && rungs != 13 {
				t.Fatalf("%s: %d rungs, want 13", name, rungs)
			}
		}
	}
}

// Every experiment's default Encode() bytes hash to the sha256 committed in
// testdata/default_encode.sha256, so a change meant to leave the models'
// outputs alone shows that it did. E19 is left out: it reports wall-clock
// throughput. On a mismatch the test names the experiments that moved and
// prints the table the code now produces.
func TestDefaultEncodeHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the shared default pass; skipped in -short")
	}
	raw, err := os.ReadFile("testdata/default_encode.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if id, sum, ok := strings.Cut(line, " "); ok {
			want[id] = sum
		}
	}
	var table strings.Builder
	for _, e := range Registry() {
		if e.ID == "E19" {
			continue
		}
		sum := fmt.Sprintf("%x", sha256.Sum256(defaultResults()[e.ID].Encode()))
		fmt.Fprintf(&table, "%s %s\n", e.ID, sum)
		if want[e.ID] != sum {
			t.Errorf("%s: default Encode() hashes to %s, the table holds %q", e.ID, sum, want[e.ID])
		}
		delete(want, e.ID)
	}
	for id := range want {
		t.Errorf("the table names %s, which is not a registered experiment (or is E19)", id)
	}
	if t.Failed() {
		t.Logf("the table for this code:\n%s", table.String())
	}
}

// TestEveryExperimentResultRoundTrips guards the serve-cache contract: each
// registered experiment's output must survive Encode/Decode byte-for-byte at
// the rendered level.
func TestEveryExperimentResultRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := defaultResults()[e.ID]
			got, err := DecodeResult(res.Encode())
			if err != nil {
				t.Fatalf("DecodeResult(%s): %v", e.ID, err)
			}
			if got.Render() != res.Render() {
				t.Fatalf("%s: render mismatch across codec round trip", e.ID)
			}
			// The sized-once encoders write the bytes the growing ones wrote.
			if res.Table != nil && !bytes.Equal(res.Table.AppendEncode(nil), referenceTableEncode(res.Table)) {
				t.Fatalf("%s: Table.AppendEncode differs from the reference encoding", e.ID)
			}
			if res.Figure != nil && !bytes.Equal(res.Figure.AppendEncode(nil), referenceFigureEncode(res.Figure)) {
				t.Fatalf("%s: Figure.AppendEncode differs from the reference encoding", e.ID)
			}
		})
	}
}

func TestDecodeResultRejectsGarbage(t *testing.T) {
	if _, err := DecodeResult(nil); err == nil {
		t.Fatal("DecodeResult(nil) should fail")
	}
	enc := sampleResult().Encode()
	for _, cut := range []int{1, 2, len(enc) / 3, len(enc) - 1} {
		if _, err := DecodeResult(enc[:cut]); err == nil {
			t.Fatalf("truncated payload (%d bytes) should fail", cut)
		}
	}
}

func TestDecodeResultRejectsTrailingBytes(t *testing.T) {
	for name, r := range map[string]Result{
		"table+figure+findings": sampleResult(),
		"findings-only":         {Findings: []string{"just text"}},
		"empty":                 {},
	} {
		padded := append(r.Encode(), 0x00)
		if _, err := DecodeResult(padded); err == nil {
			t.Errorf("%s: payload with trailing bytes should fail", name)
		}
	}
}

// TestFindingsOnlyResultRoundTripsExactly guards the sweep-aggregation
// contract: a grid point that carries only findings (nil Table, nil
// Figure) must memoize byte-for-byte — encode, decode, and re-encode to
// identical bytes with no finding lost or reordered.
func TestFindingsOnlyResultRoundTripsExactly(t *testing.T) {
	r := Result{Findings: []string{
		"measured fraction at fanout 400: 98.3%",
		"", // empty findings survive too
		"headline 42",
	}}
	enc := r.Encode()
	got, err := DecodeResult(enc)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	if got.Table != nil || got.Figure != nil {
		t.Fatalf("round trip invented a table/figure: %+v", got)
	}
	if len(got.Findings) != len(r.Findings) {
		t.Fatalf("findings count: got %d want %d", len(got.Findings), len(r.Findings))
	}
	for i := range r.Findings {
		if got.Findings[i] != r.Findings[i] {
			t.Fatalf("finding %d: got %q want %q", i, got.Findings[i], r.Findings[i])
		}
	}
	re := got.Encode()
	if len(re) != len(enc) {
		t.Fatalf("re-encode length differs: %d vs %d", len(re), len(enc))
	}
	for i := range enc {
		if re[i] != enc[i] {
			t.Fatalf("re-encode differs at byte %d", i)
		}
	}
}
