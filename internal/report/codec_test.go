package report

import (
	"math"
	"reflect"
	"testing"
)

func TestTableCodecRoundTrip(t *testing.T) {
	tb := NewTable("title with spaces", "a", "b", "c")
	tb.Note = "a note, with punctuation\nand a newline"
	tb.AddRow("1", "2", "3")
	tb.AddRow("only-one")
	tb.AddRow("x", "y", "z", "extra-cell")
	tb.AddRow()

	got, err := DecodeTable(tb.AppendEncode(nil))
	if err != nil {
		t.Fatalf("DecodeTable: %v", err)
	}
	if got.Title != tb.Title || got.Note != tb.Note {
		t.Fatalf("title/note mismatch: %+v vs %+v", got, tb)
	}
	if !reflect.DeepEqual(got.Headers, tb.Headers) {
		t.Fatalf("headers: got %v want %v", got.Headers, tb.Headers)
	}
	if len(got.Rows) != len(tb.Rows) {
		t.Fatalf("rows: got %d want %d", len(got.Rows), len(tb.Rows))
	}
	for i := range tb.Rows {
		if len(tb.Rows[i]) == 0 {
			if len(got.Rows[i]) != 0 {
				t.Fatalf("row %d: got %v want empty", i, got.Rows[i])
			}
			continue
		}
		if !reflect.DeepEqual(got.Rows[i], tb.Rows[i]) {
			t.Fatalf("row %d: got %v want %v", i, got.Rows[i], tb.Rows[i])
		}
	}
	if got.String() != tb.String() {
		t.Fatal("rendered output changed across the codec round trip")
	}
}

func TestEmptyTableRoundTrip(t *testing.T) {
	tb := &Table{}
	got, err := DecodeTable(tb.AppendEncode(nil))
	if err != nil {
		t.Fatalf("DecodeTable: %v", err)
	}
	if got.Title != "" || len(got.Headers) != 0 || len(got.Rows) != 0 {
		t.Fatalf("expected empty table, got %+v", got)
	}
}

func TestFigureCodecRoundTrip(t *testing.T) {
	f := NewFigure("scaling", "cores", "speedup")
	f.Note = "amdahl"
	s1 := f.AddSeries("f=0.9")
	s1.Add(1, 1)
	s1.Add(2, 1.81)
	s1.Add(0.5, math.Inf(1))
	s2 := f.AddSeries("f=0.99")
	s2.Add(1, 1)
	s2.Add(-3, 1e-300)
	f.AddSeries("empty")

	got, err := DecodeFigure(f.AppendEncode(nil))
	if err != nil {
		t.Fatalf("DecodeFigure: %v", err)
	}
	if got.Title != f.Title || got.XLabel != f.XLabel || got.YLabel != f.YLabel || got.Note != f.Note {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, f)
	}
	if len(got.Series) != len(f.Series) {
		t.Fatalf("series: got %d want %d", len(got.Series), len(f.Series))
	}
	for i, s := range f.Series {
		if got.Series[i].Name != s.Name {
			t.Fatalf("series %d name: got %q want %q", i, got.Series[i].Name, s.Name)
		}
		if !reflect.DeepEqual(got.Series[i].Points, s.Points) && len(s.Points) > 0 {
			t.Fatalf("series %d points: got %v want %v", i, got.Series[i].Points, s.Points)
		}
	}
	if got.String() != f.String() {
		t.Fatal("rendered output changed across the codec round trip")
	}
}

func TestFloatBitExactness(t *testing.T) {
	f := NewFigure("edge", "x", "y")
	s := f.AddSeries("s")
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, 1.0 / 3.0}
	for i, v := range specials {
		s.Add(float64(i), v)
	}
	got, err := DecodeFigure(f.AppendEncode(nil))
	if err != nil {
		t.Fatalf("DecodeFigure: %v", err)
	}
	for i, v := range specials {
		gv := got.Series[0].Points[i].Y
		if math.Float64bits(gv) != math.Float64bits(v) {
			t.Fatalf("point %d: got %x want %x", i, math.Float64bits(gv), math.Float64bits(v))
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeTable(nil); err == nil {
		t.Fatal("DecodeTable(nil) should fail")
	}
	if _, err := DecodeFigure([]byte{kindTable, 0}); err == nil {
		t.Fatal("DecodeFigure of a table payload should fail")
	}
	tb := NewTable("t", "h")
	tb.AddRow("v")
	enc := tb.AppendEncode(nil)
	for _, cut := range []int{1, 2, len(enc) / 2, len(enc) - 1} {
		if _, err := DecodeTable(enc[:cut]); err == nil {
			t.Fatalf("truncated payload (%d bytes) should fail", cut)
		}
	}
}

// A row's declared cell count must never drive allocation on its own: a
// ~20-byte payload declaring a multi-billion-cell row once OOMed the
// decoder (found by FuzzDecodeResult). The payload must fail cleanly —
// and fast — instead.
func TestDecodeTableHugeCellCountIsCorruptNotOOM(t *testing.T) {
	e := &encoder{}
	e.buf = append(e.buf, kindTable)
	e.str("t")   // title
	e.str("")    // note
	e.uvarint(1) // one header
	e.str("h")
	e.uvarint(1)       // one row...
	e.uvarint(1 << 40) // ...claiming 2^40 cells
	if _, err := DecodeTable(e.buf); err == nil {
		t.Fatal("huge declared cell count should be corrupt")
	}
}
