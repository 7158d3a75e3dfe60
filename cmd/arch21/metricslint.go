package main

// arch21 metricslint: scrape a live daemon's /metrics (or read an
// already-captured exposition file / stdin) and run the promlint-style
// checks obs.Lint enforces. Exits nonzero on any problem — the check
// `make metrics-smoke` and CI's mid-load scrape run.

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/obs"
)

func cmdMetricsLint(args []string) {
	fs := flag.NewFlagSet("metricslint", flag.ExitOnError)
	addr := fs.String("addr", "", "scrape a live daemon's /metrics at this address (default: read FILE or stdin)")
	timeout := fs.Duration("timeout", 10*time.Second, "scrape timeout")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: arch21 metricslint [-addr :8021] [FILE]")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)

	var in io.Reader
	var src string
	switch {
	case *addr != "":
		src = httpapi.BaseURL(*addr) + "/metrics"
		client := &http.Client{Timeout: *timeout}
		resp, err := client.Get(src)
		if err != nil {
			fatalf("%v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			fatalf("%s: HTTP %d", src, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			fatalf("%s: unexpected Content-Type %q", src, ct)
		}
		in = resp.Body
	case fs.NArg() == 1:
		src = fs.Arg(0)
		f, err := os.Open(src)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	case fs.NArg() == 0:
		src, in = "stdin", os.Stdin
	default:
		fs.Usage()
		os.Exit(2)
	}

	problems := obs.Lint(in)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "%s: %s\n", src, p)
		}
		fatalf("%s: %d exposition problem(s)", src, len(problems))
	}
	fmt.Printf("%s: exposition is promlint-clean\n", src)
}
