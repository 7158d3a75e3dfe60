package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// capture runs fn with os.Stdout redirected into a pipe and returns what
// it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	fn()
	w.Close()
	return <-done
}

// `arch21 list` prints every registered experiment with its claim and, when
// it has knobs, its schema.
func TestListNamesEveryExperiment(t *testing.T) {
	out := capture(t, cmdList)
	for _, e := range core.Registry() {
		want := fmt.Sprintf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.PaperClaim)
		if len(e.Params) > 0 {
			want += "     params: " + e.SchemaString() + "\n"
		}
		if !strings.Contains(out, want) {
			t.Errorf("list lacks %s's entry %q", e.ID, want)
		}
	}
}

// `arch21 params <id>` prints one line per declared parameter, with its
// default and range.
func TestParamsPrintsSchema(t *testing.T) {
	for _, e := range core.Registry() {
		out := capture(t, func() { cmdParams([]string{e.ID}) })
		if len(e.Params) == 0 {
			if out != e.ID+" takes no parameters\n" {
				t.Errorf("params %s = %q", e.ID, out)
			}
			continue
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != len(e.Params) {
			t.Fatalf("params %s printed %d lines for %d parameters:\n%s", e.ID, len(lines), len(e.Params), out)
		}
		for i, s := range e.Params {
			if !strings.HasPrefix(lines[i], s.Name+" ") || !strings.Contains(lines[i], "default="+core.FormatParamValue(s.Default)) ||
				!strings.Contains(lines[i], "range=["+core.FormatParamValue(s.Min)+", "+core.FormatParamValue(s.Max)+"]") {
				t.Errorf("params %s line %d = %q, want %s with its default and range", e.ID, i, lines[i], s.Name)
			}
		}
	}
}

// `arch21 run E1` prints the header, the resolved defaults and E1's own
// rendering; -csv prints its table as CSV.
func TestRunE1(t *testing.T) {
	e, ok := core.ByID("E1")
	if !ok {
		t.Fatal("E1 not registered")
	}
	res, resolved, err := e.RunWith(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	head := "=== E1: " + e.Title + "\nclaim: " + e.PaperClaim + "\nparams: "
	for i, s := range e.Params {
		if i > 0 {
			head += " "
		}
		head += s.Name + "=" + core.FormatParamValue(resolved[s.Name])
	}
	head += "\n"
	if out := capture(t, func() { cmdRun([]string{"E1"}) }); out != head+res.Render() {
		t.Errorf("run E1 printed\n%s\nwant\n%s%s", out, head, res.Render())
	}
	if out := capture(t, func() { cmdRun([]string{"E1", "-csv"}) }); out != head+res.Table.CSV() {
		t.Errorf("run E1 -csv printed\n%s\nwant\n%s%s", out, head, res.Table.CSV())
	}
}
