package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// bench -compare OLD NEW applies each end-to-end metric's bound to two
// sets of --trace 0 results, one row per (workload, metric):
//
//	ok          NEW's median is no worse than OLD's by more than the bound
//	worse       it is worse by more than the bound
//	unresolved  the run-to-run spread is wider than the bound, so the
//	            medians cannot be told apart — unless every NEW run reads
//	            better than every OLD run (ok) or every one reads worse by
//	            more than the bound (worse)
//
// The spread of a side is the distance between the first and third
// quartile of its runs over their median; a side with a single run uses
// that run's 1 s slices (the three metrics that have them). It exits 1
// when any row is worse.

// infoP99 is the window's p99, which an end-to-end run records without a
// bound (see metrics.go); -compare shows it as an "info" row, so a change
// to the tail is seen even though it cannot be judged.
var infoP99 = metricSpec{Name: "lat_p99_us", Unit: "us", Better: "lower"}

// loadResults reads --trace 0 result files named by a comma-separated
// list of files and directories, grouped by workload.
func loadResults(arg string) (map[string][]*result, error) {
	out := map[string][]*result{}
	for _, p := range strings.Split(arg, ",") {
		files := []string{p}
		if st, err := os.Stat(p); err == nil && st.IsDir() {
			files, _ = filepath.Glob(filepath.Join(p, "*.json")) // the pattern is well-formed
		}
		for _, f := range files {
			buf, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			var r result
			if err := json.Unmarshal(buf, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if r.Workload != "" && r.Trace == 0 && r.Metrics != nil {
				r.Metrics[infoP99.Name] = metricValue{Value: r.LatP99us, Unit: infoP99.Unit}
				out[r.Workload] = append(out[r.Workload], &r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no --trace 0 results", arg)
	}
	return out, nil
}

// quartiles returns the first and third quartile and the median by
// linear interpolation between order statistics.
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := slices.Sorted(slices.Values(vals))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// side is one set's values of one metric on one workload.
type side struct {
	vals   []float64
	median float64
	spread float64 // IQR over median
}

func newSide(rs []*result, metric string) side {
	var s side
	for _, r := range rs {
		s.vals = append(s.vals, r.Metrics[metric].Value)
	}
	from := s.vals
	if len(rs) == 1 && len(rs[0].Slices[metric]) > 1 {
		from = rs[0].Slices[metric]
	}
	q1, _, q3 := quartiles(from)
	_, s.median, _ = quartiles(s.vals)
	if s.median != 0 {
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// verdict applies one metric's bound to the two sides.
func verdict(m metricSpec, a, b side) (string, float64) {
	sign := 1.0 // positive change = worse
	if m.Better == "higher" {
		sign = -1
	}
	if a.median == 0 {
		return "ok", 0 // nothing to be a share of (a result file without the metric)
	}
	change := sign * (b.median - a.median) / a.median
	worseBy := func(x, y float64) float64 { return sign * (y - x) / x }
	allBetter, allWorse := true, true
	for _, x := range a.vals {
		for _, y := range b.vals {
			if worseBy(x, y) > 0 {
				allBetter = false
			}
			if worseBy(x, y) <= m.Bound {
				allWorse = false
			}
		}
	}
	switch {
	case max(a.spread, b.spread) > m.Bound && !allBetter && !allWorse:
		return "unresolved", change
	case change > m.Bound:
		return "worse", change
	}
	return "ok", change
}

func runCompare(oldArg, newArg string, stdout, stderr io.Writer) int {
	olds, err := loadResults(oldArg)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	news, err := loadResults(newArg)
	if err != nil {
		fmt.Fprintln(stderr, "bench: -compare:", err)
		return 2
	}
	return printCompare(olds, news, stdout)
}

func printCompare(olds, news map[string][]*result, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-12s %-14s %-10s %14s %14s %8s %7s %7s\n",
		"workload", "metric", "verdict", "old", "new", "worse by", "spread", "bound")
	for _, wl := range workloadSpecs {
		a, b := olds[wl.Name], news[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range slices.Concat(endToEnd, []metricSpec{infoP99}) {
			sa, sb := newSide(a, m.Name), newSide(b, m.Name)
			v, change := verdict(m, sa, sb)
			if m.Bound == 0 {
				v = "info"
			}
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-12s %-14s %-10s %14.4f %14.4f %+7.1f%% %6.1f%% %6.1f%%\n",
				wl.Name, m.Name, v, sa.median, sb.median, 100*change, 100*max(sa.spread, sb.spread), 100*m.Bound)
		}
	}
	return code
}
