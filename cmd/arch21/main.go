// Command arch21 runs the toolkit's paper-claim experiments, singly or as
// parameter sweeps.
//
// Usage:
//
//	arch21 list                                # experiments with their claims and knobs
//	arch21 params E7                           # one experiment's parameter schema
//	arch21 run E3                              # run one experiment at defaults
//	arch21 run E3 -param fanout=400            # override declared parameters
//	arch21 run E3 -csv                         # emit the table as CSV
//	arch21 run all                             # run every experiment
//	arch21 sweep -id E7 -param f=0.9:0.99:0.03 # sweep a parameter grid
//	arch21 sweep -id E7 -param f=0.9,0.99 -param bces=64,256 -v
//	arch21 loadtest -scenario warm-hammer -duration 2s -json report.json
//	arch21 ctl -addr :8021 -batch-rate 64    # live retune a running arch21d
//	arch21 ctl -addr :8021 -slo 50ms
//	arch21 metricslint -addr :8021            # promlint-style check of a live /metrics
//
// Sweeps fan the grid out over the same memoizing engine arch21d serves
// from: every unique grid point executes once, repeats come from cache,
// and the output is a combined table (plus a figure for 1- and 2-axis
// sweeps). loadtest replays catalog load scenarios against that engine
// (or a live arch21d) and emits a JSON report; whether a change made the
// serving stack slower is the repository benchmark's question (make
// bench-compare).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sweep"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		cmdList()
	case "params":
		cmdParams(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "sweep":
		cmdSweep(os.Args[2:])
	case "loadtest":
		cmdLoadtest(os.Args[2:])
	case "ctl":
		cmdCtl(os.Args[2:])
	case "metricslint":
		cmdMetricsLint(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
}

// paramFlags collects repeated -param assignments in order.
type paramFlags []string

func (p *paramFlags) String() string { return strings.Join(*p, " ") }

func (p *paramFlags) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func cmdList() {
	for _, e := range core.Registry() {
		fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.PaperClaim)
		if len(e.Params) > 0 {
			fmt.Printf("     params: %s\n", e.SchemaString())
		}
	}
}

func cmdParams(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: arch21 params <id>")
		os.Exit(2)
	}
	e, ok := core.ByID(args[0])
	if !ok {
		fatalf("unknown experiment %q (try 'arch21 list')", args[0])
	}
	if len(e.Params) == 0 {
		fmt.Printf("%s takes no parameters\n", e.ID)
		return
	}
	for _, s := range e.Params {
		fmt.Printf("%-10s %-5s default=%-8s range=[%s, %s]",
			s.Name, s.Kind, core.FormatParamValue(s.Default),
			core.FormatParamValue(s.Min), core.FormatParamValue(s.Max))
		if s.Step > 0 {
			fmt.Printf(" step=%s", core.FormatParamValue(s.Step))
		}
		if s.Doc != "" {
			fmt.Printf("  %s", s.Doc)
		}
		fmt.Println()
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit the experiment's table/figure as CSV")
	var params paramFlags
	fs.Var(&params, "param", "parameter override name=value (repeatable)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: arch21 run <id|all> [-param name=value ...] [-csv]")
		fs.PrintDefaults()
	}
	// Keep the historical "arch21 run E3 -csv" argument order working:
	// the ID comes first, flags after.
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		fs.Usage()
		os.Exit(2)
	}
	id := args[0]
	_ = fs.Parse(args[1:])

	if id == "all" {
		if len(params) > 0 {
			fatalf("-param applies to a single experiment, not 'all'")
		}
		for _, out := range core.RunAll(context.Background()) {
			fmt.Println(out)
		}
		return
	}
	e, ok := core.ByID(id)
	if !ok {
		fatalf("unknown experiment %q (try 'arch21 list')", id)
	}
	p, err := core.ParseParams(params)
	if err != nil {
		fatalf("%v", err)
	}
	res, resolved, err := e.RunWith(context.Background(), p)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("=== %s: %s\nclaim: %s\n", e.ID, e.Title, e.PaperClaim)
	if len(resolved) > 0 {
		parts := make([]string, 0, len(e.Params))
		for _, s := range e.Params {
			parts = append(parts, s.Name+"="+core.FormatParamValue(resolved[s.Name]))
		}
		fmt.Printf("params: %s\n", strings.Join(parts, " "))
	}
	if *csv {
		switch {
		case res.Table != nil:
			fmt.Print(res.Table.CSV())
		case res.Figure != nil:
			fmt.Print(res.Figure.CSV())
		}
		return
	}
	fmt.Print(res.Render())
}

func cmdSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	id := fs.String("id", "", "experiment to sweep")
	csv := fs.Bool("csv", false, "emit the aggregated table as CSV")
	verbose := fs.Bool("v", false, "print each grid point as it completes")
	workers := fs.Int("workers", 4, "max concurrent cold experiment runs")
	parallel := fs.Int("parallel", 0, "grid points per batch call is twice this (default 32: waves of 64); -workers bounds the points in flight")
	var params paramFlags
	fs.Var(&params, "param",
		"sweep axis name=lo:hi:step, name=a,b,c, or name=value (repeatable, order = grid order)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr,
			"usage: arch21 sweep -id <id> -param name=lo:hi:step [-param ...] [-csv] [-v]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if *id == "" || len(params) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	sp, err := sweep.ParseSpec(*id, params)
	if err != nil {
		fatalf("%v", err)
	}
	sp.Parallelism = *parallel
	eng := serve.NewEngine(serve.Config{Workers: *workers})
	defer eng.Close()

	var emit func(sweep.Point) error
	if *verbose {
		emit = func(pt sweep.Point) error {
			first := ""
			if len(pt.Result.Findings) > 0 {
				first = pt.Result.Findings[0]
			}
			fmt.Printf("[%d] %s (%.1fms) %s\n",
				pt.Index, pt.Key, pt.Latency.Seconds()*1e3, first)
			return nil
		}
	}
	sum, err := sweep.Run(context.Background(), eng, sp, emit)
	if err != nil {
		fatalf("%v", err)
	}
	if *csv {
		fmt.Print(sum.Aggregate.Table.CSV())
		return
	}
	fmt.Print(sum.Aggregate.Render())
	fmt.Printf("(%d points, %d from cache, %.1fms)\n",
		sum.Points, sum.CacheHits, sum.Elapsed.Seconds()*1e3)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "arch21: "+format+"\n", args...)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  arch21 list
  arch21 params <id>
  arch21 run <id|all> [-param name=value ...] [-csv]
  arch21 sweep -id <id> -param name=lo:hi:step [-param ...] [-csv] [-v]
  arch21 loadtest -scenario <name> [-duration 5s] [-clients N] [-rate R] [-class interactive|batch] [-http addr] [-json out.json]
  arch21 ctl -addr :8021 [-batch-rate R] [-slo 50ms]
  arch21 metricslint [-addr :8021] [FILE]`)
}
