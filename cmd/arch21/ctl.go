package main

// arch21 ctl — the live control channel's CLI face: POST a retune to a
// running arch21d (engine or routing front-end). Against a front-end the
// request fans out to every replica and the per-replica acks are
// printed, so a partial application is visible at the terminal, not just
// in the event log.
//
//	arch21 ctl -addr :8021 -batch-rate 64
//	arch21 ctl -addr :8021 -slo 50ms

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
)

func cmdCtl(args []string) {
	fs := flag.NewFlagSet("ctl", flag.ExitOnError)
	addr := fs.String("addr", ":8021", "arch21d address (engine or -peers front-end)")
	batchRate := fs.Float64("batch-rate", -1, "retune the batch token-bucket rate (tokens/s; 0 removes the throttle; negative = leave alone)")
	slo := fs.Duration("slo", 0, "retune the feedback controller's interactive p99 target (0 = leave alone)")
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	_ = fs.Parse(args)

	var req serve.ControlRequest
	if *batchRate >= 0 {
		req.BatchRate = batchRate
	}
	if *slo > 0 {
		ms := slo.Seconds() * 1e3
		req.SLOMS = &ms
	}
	if req.Empty() {
		fmt.Fprintln(os.Stderr, "arch21 ctl: nothing to retune (pass -batch-rate and/or -slo)")
		os.Exit(2)
	}

	body, _ := json.Marshal(req)
	client := &http.Client{Timeout: *timeout}
	resp, err := client.Post(httpapi.BaseURL(*addr)+"/control", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "arch21 ctl: %v\n", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))

	switch resp.StatusCode {
	case http.StatusOK, http.StatusMultiStatus:
		printCtlAck(out)
		if resp.StatusCode == http.StatusMultiStatus {
			fmt.Fprintln(os.Stderr, "arch21 ctl: at least one replica did not apply the retune")
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "arch21 ctl: HTTP %d: %s\n", resp.StatusCode, strings.TrimSpace(string(out)))
		os.Exit(1)
	}
}

// printCtlAck renders either response shape: a single engine's
// {"applied": {...}} or a front-end's {"replicas": [...]} fan-out.
func printCtlAck(body []byte) {
	var fanout struct {
		Replicas []struct {
			Backend string `json:"backend"`
			OK      bool   `json:"ok"`
			Ack     string `json:"ack"`
			Error   string `json:"error"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(body, &fanout); err == nil && len(fanout.Replicas) > 0 {
		for _, r := range fanout.Replicas {
			if r.OK {
				fmt.Printf("%-30s ok   %s\n", r.Backend, strings.TrimSpace(r.Ack))
			} else {
				fmt.Printf("%-30s FAIL %s\n", r.Backend, r.Error)
			}
		}
		return
	}
	var ack serve.ControlAck
	if err := json.Unmarshal(body, &ack); err == nil && len(ack.Applied) > 0 {
		for k, v := range ack.Applied {
			fmt.Printf("applied %s=%s\n", k, v)
		}
		return
	}
	fmt.Println(strings.TrimSpace(string(body)))
}
