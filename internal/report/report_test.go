package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "22")
	out := tb.String()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "name") || !strings.Contains(out, "value") {
		t.Error("missing headers")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Error("missing cells")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, sep, 2 rows -> 5? title+header+sep+2 = 5
		if len(lines) != 5 {
			t.Errorf("unexpected line count %d: %q", len(lines), out)
		}
	}
}

func TestTableNote(t *testing.T) {
	tb := NewTable("T", "a")
	tb.Note = "hello"
	if !strings.Contains(tb.String(), "note: hello") {
		t.Error("missing note")
	}
}

func TestAddRowfFormats(t *testing.T) {
	tb := NewTable("T", "a", "b", "c", "d")
	tb.AddRowf("s", 3.14159, 42, 1e-9)
	row := tb.Rows[0]
	if row[0] != "s" {
		t.Errorf("string cell = %q", row[0])
	}
	if row[1] != "3.142" {
		t.Errorf("float cell = %q", row[1])
	}
	if row[2] != "42" {
		t.Errorf("int cell = %q", row[2])
	}
	if row[3] != "1e-09" {
		t.Errorf("small float cell = %q", row[3])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{5, "5"},
		{-5, "-5"},
		{3.14159, "3.142"},
		{1e10, "1e+10"},
		{0.0001, "0.0001"},
		{1234567, "1234567"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.v); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestCSVQuoting(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x,y", "say \"hi\"")
	csv := tb.CSV()
	if !strings.Contains(csv, "\"x,y\"") {
		t.Errorf("comma cell not quoted: %q", csv)
	}
	if !strings.Contains(csv, "\"say \"\"hi\"\"\"") {
		t.Errorf("quote cell not escaped: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
}

func TestFigureTableMergesX(t *testing.T) {
	f := NewFigure("F", "x", "y")
	s1 := f.AddSeries("one")
	s2 := f.AddSeries("two")
	s1.Add(1, 10)
	s1.Add(2, 20)
	s2.Add(2, 200)
	s2.Add(3, 300)
	tb := f.Table()
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (x=1,2,3)", len(tb.Rows))
	}
	// x=2 row has both values.
	found := false
	for _, r := range tb.Rows {
		if r[0] == "2" {
			found = true
			if r[1] != "20" || r[2] != "200" {
				t.Errorf("x=2 row = %v", r)
			}
		}
	}
	if !found {
		t.Error("x=2 row missing")
	}
}

func TestFigureString(t *testing.T) {
	f := NewFigure("Fig", "n", "speedup")
	s := f.AddSeries("sym")
	s.Add(1, 1)
	s.Add(16, 8)
	out := f.String()
	if !strings.Contains(out, "Fig") || !strings.Contains(out, "sym") {
		t.Errorf("figure render missing pieces: %q", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tb := NewTable("T", "a", "b", "c")
	tb.AddRow("only-one")
	out := tb.String()
	if !strings.Contains(out, "only-one") {
		t.Error("short row lost")
	}
}
