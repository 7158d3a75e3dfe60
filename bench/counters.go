package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/router"
	"repro/internal/serve"
)

// counters is the layers' public snapshots (serve.Engine.Metrics summed
// over the workload's engines, router.Router.Metrics, and the batch
// families of the router's MetricsRegistry exposition) flattened to the
// fields the benchmark reports as per-window deltas.
type counters struct {
	requests, hits, deduped, executions, sheds int64
	evicted, cacheBytes                        int64
	submitted, admitSheds                      int64

	rtRequests, rtFailovers, rtExhausted, rtHedges, rtHedgeWins int64
	flushes                                                     map[string]float64
	batchSum, batchCount                                        float64
}

func snapshot(engs []*serve.Engine, rt *router.Router) counters {
	var c counters
	for _, e := range engs {
		m := e.Metrics()
		c.requests += m.Requests
		c.hits += m.CacheHits
		c.deduped += m.Deduped
		c.executions += m.Executions
		c.sheds += m.Sheds
		c.evicted += int64(m.Cache.Evicted)
		c.cacheBytes += m.Cache.Bytes
		for _, cs := range m.Scheduler.Classes {
			c.submitted += cs.Submitted
			c.admitSheds += cs.Sheds
		}
	}
	c.flushes = map[string]float64{}
	if rt == nil {
		return c
	}
	m := rt.Metrics()
	c.rtRequests, c.rtFailovers, c.rtExhausted = m.Requests, m.Failovers, m.Exhausted
	c.rtHedges, c.rtHedgeWins = m.Hedges, m.HedgeWins
	var buf bytes.Buffer
	_ = rt.MetricsRegistry().WriteText(&buf) // writes to a bytes.Buffer cannot fail
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(name, `arch21_batch_flushes_total{reason="`):
			reason := strings.TrimSuffix(strings.TrimPrefix(name, `arch21_batch_flushes_total{reason="`), `"}`)
			c.flushes[reason] = f
		case name == "arch21_batch_size_sum":
			c.batchSum = f
		case name == "arch21_batch_size_count":
			c.batchCount = f
		}
	}
	return c
}

// sub returns the delta c - b; cacheBytes is a gauge and stays c's.
func (c counters) sub(b counters) counters {
	d := c
	d.requests -= b.requests
	d.hits -= b.hits
	d.deduped -= b.deduped
	d.executions -= b.executions
	d.sheds -= b.sheds
	d.evicted -= b.evicted
	d.submitted -= b.submitted
	d.admitSheds -= b.admitSheds
	d.rtRequests -= b.rtRequests
	d.rtFailovers -= b.rtFailovers
	d.rtExhausted -= b.rtExhausted
	d.rtHedges -= b.rtHedges
	d.rtHedgeWins -= b.rtHedgeWins
	d.batchSum -= b.batchSum
	d.batchCount -= b.batchCount
	d.flushes = map[string]float64{}
	for k, v := range c.flushes {
		d.flushes[k] = v - b.flushes[k]
	}
	return d
}

func (c counters) hitRatio() float64 {
	if c.requests == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.requests)
}

func (c counters) batchSizeMean() float64 {
	if c.batchCount == 0 {
		return 0
	}
	return c.batchSum / c.batchCount
}

// conservation checks every engine's per-class law
// hits + deduped + sheds + executions == requests.
func conservation(engs []*serve.Engine) []string {
	var out []string
	for i, e := range engs {
		for class, cm := range e.Metrics().Classes {
			if got := cm.CacheHits + cm.Deduped + cm.Sheds + cm.Executions; got != cm.Requests {
				out = append(out, fmt.Sprintf("engine %d class %s: hits+deduped+sheds+executions = %d, requests = %d",
					i, class, got, cm.Requests))
			}
		}
	}
	return out
}

// verifyWarm is the four warm workloads' invariant set: every engine
// request a cache hit, nothing executed, nothing reached the scheduler.
func verifyWarm(d counters, w *window) []string {
	var out []string
	if d.hits != d.requests || d.requests < w.attempted-w.failed {
		out = append(out, fmt.Sprintf("warm workload: %d engine requests, %d hits, %d ops served (want hit ratio 1)",
			d.requests, d.hits, w.attempted-w.failed))
	}
	if d.executions != 0 || d.submitted != 0 {
		out = append(out, fmt.Sprintf("warm workload: %d executions, %d scheduler submissions (want 0)",
			d.executions, d.submitted))
	}
	return out
}
