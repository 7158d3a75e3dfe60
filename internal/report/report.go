// Package report renders experiment outputs as aligned ASCII tables,
// multi-series figures (printed as columnar data), and CSV. Every arch21 experiment produces a report.Table or
// report.Figure so that cmd/arch21, the examples, and the benchmark harness
// all share one presentation path.
package report

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of string cells with a header row.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Cells beyond len(Headers) are kept; short rows are
// padded when rendering.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row formatting each cell with %v.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FormatFloat renders a float compactly: integers without decimals, small
// magnitudes in scientific notation, others with 4 significant digits.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e7 || av < 1e-3:
		return strconv.FormatFloat(v, 'g', 3, 64)
	case v == float64(int64(v)) && av < 1e7:
		return strconv.FormatInt(int64(v), 10)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

func (t *Table) widths() []int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	w := make([]int, n)
	for i, h := range t.Headers {
		if len(h) > w[i] {
			w[i] = len(h)
		}
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table as aligned ASCII. A column is as wide as its
// longest cell in bytes and a cell is padded up to that many runes, as
// fmt's %-*s pads: a multi-byte cell stands out by its extra bytes.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	w := t.widths()
	total := 1
	for _, n := range w {
		total += n + 2
	}
	b.Grow(total * (len(t.Rows) + 2))
	line := func(cells []string, pad byte) {
		for i := 0; i < len(w); i++ {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for n := w[i] - utf8.RuneCountInString(c); n > 0; n-- {
				b.WriteByte(pad)
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers, ' ')
	line(nil, '-')
	for _, r := range t.Rows {
		line(r, ' ')
	}
	if t.Note != "" {
		b.WriteString("note: " + t.Note + "\n")
	}
	return b.String()
}

// CSV renders the table as comma-separated values with quoted cells where
// needed.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Point is one (x, y) observation in a figure series.
type Point struct {
	X, Y float64
}

// Series is a named sequence of points.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a titled set of series sharing x/y axes. It renders as a
// columnar data table (x followed by one column per series).
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Note   string
	Series []*Series
}

// NewFigure creates a figure with axis labels.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries registers a new named series and returns it for appending.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Add appends a point to the series.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Table converts the figure to a columnar table, merging series on exact x
// values in first-series order (then any x unique to later series, in
// encounter order).
func (f *Figure) Table() *Table {
	headers := []string{f.XLabel}
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	t := NewTable(f.Title, headers...)
	t.Note = f.Note

	var xs []float64
	seen := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		row := []string{FormatFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = FormatFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

// String renders the figure's data table.
func (f *Figure) String() string {
	return f.Table().String()
}

// CSV renders the figure's data table as CSV.
func (f *Figure) CSV() string {
	return f.Table().CSV()
}
