package report

// The renderers and encoders as they were before they stopped going
// through fmt and growing from 64 bytes, kept verbatim as references:
// the current ones must produce the same bytes.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func referenceFormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e7 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v == float64(int64(v)) && av < 1e7:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func referenceTableString(t *Table) string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	w := t.widths()
	line := func(cells []string) {
		for i := 0; i < len(w); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	sep := make([]string, len(w))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		b.WriteString("note: " + t.Note + "\n")
	}
	return b.String()
}

// encoder is the codec's writer as it was before AppendEncode: the
// references below (and a hand-built corrupt payload in codec_test.go)
// write through it.
type encoder struct {
	buf []byte
	tmp [binary.MaxVarintLen64]byte
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.buf = append(e.buf, e.tmp[:n]...)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) float(f float64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], math.Float64bits(f))
	e.buf = append(e.buf, w[:]...)
}

func referenceTableEncode(t *Table) []byte {
	e := &encoder{buf: make([]byte, 0, 64)}
	e.buf = append(e.buf, kindTable)
	e.str(t.Title)
	e.str(t.Note)
	e.uvarint(uint64(len(t.Headers)))
	for _, h := range t.Headers {
		e.str(h)
	}
	e.uvarint(uint64(len(t.Rows)))
	for _, r := range t.Rows {
		e.uvarint(uint64(len(r)))
		for _, c := range r {
			e.str(c)
		}
	}
	return e.buf
}

func referenceFigureEncode(f *Figure) []byte {
	e := &encoder{buf: make([]byte, 0, 64)}
	e.buf = append(e.buf, kindFigure)
	e.str(f.Title)
	e.str(f.XLabel)
	e.str(f.YLabel)
	e.str(f.Note)
	e.uvarint(uint64(len(f.Series)))
	for _, s := range f.Series {
		e.str(s.Name)
		e.uvarint(uint64(len(s.Points)))
		for _, p := range s.Points {
			e.float(p.X)
			e.float(p.Y)
		}
	}
	return e.buf
}

// seededFloat draws from the ranges FormatFloat switches between: any bit
// pattern, magnitudes around 1e-3 and 1e7, and whole numbers.
func seededFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return math.Float64frombits(rng.Uint64())
	case 1:
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(14)-5))
	case 2:
		return float64(rng.Int63n(4e7) - 2e7)
	default:
		return float64(rng.Int63n(4e7)-2e7) / 1000
	}
}

func TestFormatFloatMatchesSprintf(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 1e-3, -1e-3, 9.999e-4, 0.0010001, 1e7, -1e7, 9999999, 9999999.5,
		1e7 + 1, 1, -1, 42, -42, 1 << 53, 0.5, 1234.5678, 99995, 99994.9, 0.00099995, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1), float64(math.MaxInt64), float64(math.MinInt64)}
	for _, v := range edges {
		if got, want := FormatFloat(v), referenceFormatFloat(v); got != want {
			t.Errorf("FormatFloat(%v) = %q, Sprintf gave %q", v, got, want)
		}
	}
	rng := rand.New(rand.NewSource(22))
	const n = 100000
	for i := 0; i < n; i++ {
		v := seededFloat(rng)
		if got, want := FormatFloat(v), referenceFormatFloat(v); got != want {
			t.Fatalf("FormatFloat(%v) = %q, Sprintf gave %q", v, got, want)
		}
	}
	t.Logf("%d edges and %d seeded floats identical", len(edges), n)
}

// seededTable builds tables that stress the padding: multi-byte cells
// (the em dash E7's finding carries into a sweep's table), invalid UTF-8,
// rows shorter and longer than the header, empty title, note and cells.
func seededTable(rng *rand.Rand) *Table {
	words := []string{"", "x", "speedup", "64 cores — 1.7x perf/W", "héllo", "µs", "a\tb", "日本語", "\xff\xfe", "12.5", "  padded  "}
	pick := func() string { return words[rng.Intn(len(words))] }
	headers := make([]string, rng.Intn(5))
	for i := range headers {
		headers[i] = pick()
	}
	tb := NewTable([]string{"", "title", "título —"}[rng.Intn(3)], headers...)
	tb.Note = []string{"", "a note", "nota — ñ"}[rng.Intn(3)]
	for r := rng.Intn(6); r > 0; r-- {
		row := make([]string, rng.Intn(7))
		for i := range row {
			row[i] = pick()
		}
		tb.AddRow(row...)
	}
	return tb
}

// seededPrefix is what AppendEncode may find in dst: nothing, a few bytes,
// or bytes with spare capacity behind them (which it must write into, not
// over the prefix).
func seededPrefix(rng *rand.Rand) []byte {
	p := make([]byte, rng.Intn(20), 20+rng.Intn(3000))
	rng.Read(p)
	return p
}

func TestTableStringAndEncodeMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 5000
	for i := 0; i < n; i++ {
		tb := seededTable(rng)
		if got, want := tb.String(), referenceTableString(tb); got != want {
			t.Fatalf("table %d renders differently:\n--- got ---\n%s--- want ---\n%s", i, got, want)
		}
		enc, want := tb.AppendEncode(nil), referenceTableEncode(tb)
		if !bytes.Equal(enc, want) {
			t.Fatalf("table %d encodes differently", i)
		}
		if tb.EncodedLen() != len(enc) {
			t.Fatalf("table %d: EncodedLen %d for %d bytes", i, tb.EncodedLen(), len(enc))
		}
		if prefix := seededPrefix(rng); !bytes.Equal(tb.AppendEncode(prefix), append(prefix[:len(prefix):len(prefix)], want...)) {
			t.Fatalf("table %d: AppendEncode after %d bytes is not the prefix and the reference", i, len(prefix))
		}
	}
	t.Logf("%d seeded tables identical", n)
}

func TestFigureEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n = 500
	for i := 0; i < n; i++ {
		f := NewFigure(seededTable(rng).Title, "x —", "y")
		f.Note = strings.Repeat("n", rng.Intn(300)) // a length that needs a two-byte varint
		for s := rng.Intn(4); s > 0; s-- {
			ser := f.AddSeries(strings.Repeat("s", rng.Intn(4)))
			for p := rng.Intn(200); p > 0; p-- {
				ser.Add(seededFloat(rng), seededFloat(rng))
			}
		}
		enc, want := f.AppendEncode(nil), referenceFigureEncode(f)
		if !bytes.Equal(enc, want) {
			t.Fatalf("figure %d encodes differently", i)
		}
		if f.EncodedLen() != len(enc) {
			t.Fatalf("figure %d: EncodedLen %d for %d bytes", i, f.EncodedLen(), len(enc))
		}
		if prefix := seededPrefix(rng); !bytes.Equal(f.AppendEncode(prefix), append(prefix[:len(prefix):len(prefix)], want...)) {
			t.Fatalf("figure %d: AppendEncode after %d bytes is not the prefix and the reference", i, len(prefix))
		}
		if got, want := f.String(), referenceTableString(f.Table()); got != want {
			t.Fatalf("figure %d renders differently", i)
		}
	}
	t.Logf("%d seeded figures identical", n)
}
