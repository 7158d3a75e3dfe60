package main

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

// workload is one closed-loop traffic mix and the stacks it runs
// against. Every caller this serving stack has today (router to replica,
// sweep clients, arch21 loadtest) waits for its reply, so the loop is
// closed: each client issues its next request when the previous one
// completes.
type workload interface {
	// setup builds the stacks, computes golden outputs through core and
	// fills every cache through the engines' own API: what a daemon's boot
	// and first fill cost, all of it in-process, and what setup_s times. A
	// non-nil tracer installs the span wrappers. prime then opens the
	// clients' connections and proves the path end to end over the wire,
	// every key compared in full. It is not timed: one request at a time
	// over loopback is wake-up latency, which a busy host moved by 28 %
	// between two sets of runs while the in-process part held within 5 %
	// (README.md). close undoes all of it.
	setup(tr *tracer) error
	prime() error
	close() error
	// clients is the closed-loop client count; stride times one op in
	// every stride (1 = all), so a sub-microsecond op is not mostly clock
	// reads.
	clients() int
	stride() int
	// op issues client c's seq-th request and verifies the reply. It
	// returns the ops attempted (requests, batch entries or sweep points)
	// and how many failed transport, status or output checks. ls is the
	// open client span on a traced window, else nil. deep runs after the
	// iteration's latency has been taken and compares the reply in full
	// with core's output where the workload's schedule says so, returning
	// further failures; verification that costs as much as a request must
	// not sit inside the timed interval.
	op(c, seq int, ls *liveSpan) (ops, failed int)
	deep(c, seq int) (failed int)
	// engines and router expose the layers' public snapshots (router may
	// be nil); verify checks the workload's own invariants on a window's
	// counter deltas.
	engines() []*serve.Engine
	router() *router.Router
	verify(d counters, w *window) []string
}

// backgrounder is a workload with a side task during every window (the
// 1 Hz scrapes a production daemon sees).
type backgrounder interface {
	background(ctx context.Context)
}

// window is one measured interval.
type window struct {
	sliceDur time.Duration

	attempted, failed int64
	// completed counts ops of iterations that ended inside the window.
	completed int64
	sliceOps  []int64
	sliceLat  [][]uint32 // ns, sorted per slice after the run
	pooled    []uint32   // every sample, sorted

	// cpu is the process's CPU time over the window; sliceCPU the same per
	// slice, read by a sampler that wakes at each slice boundary.
	cpu      time.Duration
	sliceCPU []time.Duration
	mallocs  uint64
	delta    counters
	// problems lists failed invariants (conservation, hit ratio, ...).
	problems []string
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sliceCount cuts a window into 1 s slices, at least four.
func sliceCount(dur time.Duration) int {
	n := int(math.Round(dur.Seconds()))
	if n < 4 {
		n = 4
	}
	return n
}

// runWindow drives the workload closed-loop for dur and checks its
// counters. tr non-nil turns span recording on for the window.
func runWindow(w workload, dur time.Duration, tr *tracer) *window {
	n := sliceCount(dur)
	win := &window{sliceDur: dur / time.Duration(n),
		sliceOps: make([]int64, n), sliceLat: make([][]uint32, n)}
	nc, stride := w.clients(), w.stride()

	type clientBook struct {
		attempted, failed int64
		sliceOps          []int64
		sliceLat          [][]uint32
	}
	// One allocation per client, so two clients' counters never share a
	// cache line.
	books := make([]*clientBook, nc)
	for i := range books {
		books[i] = &clientBook{sliceOps: make([]int64, n), sliceLat: make([][]uint32, n)}
	}

	bgCtx, bgCancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	if b, ok := w.(backgrounder); ok {
		bg.Add(1)
		go func() { defer bg.Done(); b.background(bgCtx) }()
	}
	if tr != nil {
		tr.reset()
		tr.on.Store(true)
	}
	before := snapshot(w.engines(), w.router())
	m0, c0 := mallocs(), cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := c0
		for s := 1; s <= n; s++ {
			time.Sleep(time.Until(start.Add(time.Duration(s) * win.sliceDur)))
			now := cpuTime()
			win.sliceCPU = append(win.sliceCPU, now-prev)
			prev = now
		}
	}()
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b := books[c]
			var acc int64 // ops since the last timed iteration
			for seq := 0; ; seq++ {
				timed := seq%stride == 0
				var t0 time.Time
				if timed {
					t0 = time.Now()
					if t0.Sub(start) >= dur {
						return
					}
				}
				var ls *liveSpan
				if tr != nil {
					// c+1: trace 0 means "no trace" on a detached span.
					ls = tr.start(spClient, uint64(c+1)<<40|uint64(seq), 0, nil)
				}
				ops, failed := w.op(c, seq, ls)
				ls.end()
				var t1 time.Time
				if timed {
					t1 = time.Now()
				}
				failed += w.deep(c, seq)
				b.attempted += int64(ops)
				b.failed += int64(failed)
				acc += int64(ops - failed)
				if !timed {
					continue
				}
				if s := int(t1.Sub(start) / win.sliceDur); s < n {
					lat := t1.Sub(t0)
					if lat > math.MaxUint32 {
						lat = math.MaxUint32
					}
					b.sliceLat[s] = append(b.sliceLat[s], uint32(lat))
					b.sliceOps[s] += acc
				}
				acc = 0
			}
		}(c)
	}
	wg.Wait()
	win.cpu = cpuTime() - c0
	win.mallocs = mallocs() - m0
	if tr != nil {
		tr.on.Store(false)
	}
	bgCancel()
	bg.Wait()

	for _, b := range books {
		win.attempted += b.attempted
		win.failed += b.failed
		for s := 0; s < n; s++ {
			win.sliceOps[s] += b.sliceOps[s]
			win.completed += b.sliceOps[s]
			win.sliceLat[s] = append(win.sliceLat[s], b.sliceLat[s]...)
		}
	}
	for s := range win.sliceLat {
		slices.Sort(win.sliceLat[s])
		win.pooled = append(win.pooled, win.sliceLat[s]...)
	}
	slices.Sort(win.pooled)

	// An abandoned hedge can still be in flight on a replica for a moment
	// after its client returned; the books balance at quiescence.
	var cons []string
	for i := 0; i < 50; i++ {
		if cons = conservation(w.engines()); len(cons) == 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	win.delta = snapshot(w.engines(), w.router()).sub(before)
	win.problems = append(cons, w.verify(win.delta, win)...)
	if win.delta.rtExhausted != 0 {
		win.problems = append(win.problems, "router.exhausted = "+strconv.FormatInt(win.delta.rtExhausted, 10))
	}
	return win
}

// quantile reads the q-quantile off sorted samples (0 when empty).
func quantile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	_, med, _ := quartiles(vals)
	return med
}

// sliceOpsPerS is successful ops per second of each slice.
func (w *window) sliceOpsPerS() []float64 {
	out := make([]float64, len(w.sliceOps))
	for i, n := range w.sliceOps {
		out[i] = float64(n) / w.sliceDur.Seconds()
	}
	return out
}

// sliceP50us is each slice's median latency; slices without a sample
// (a sweep call can outlast a short test slice) are skipped.
func (w *window) sliceP50us() []float64 {
	var out []float64
	for _, l := range w.sliceLat {
		if len(l) > 0 {
			out = append(out, quantile(l, 0.5)/1e3)
		}
	}
	return out
}

// betterQuartile reads a window's value off its per-slice values: the
// quartile on the metric's better side (upper for a rate, lower for a time
// or a cost). The host is a shared VM on which a neighbour takes the cores
// for seconds to a minute at a time. A run half inside such a phase has a
// median that belongs to the neighbour, while its better quartile still
// belongs to the program: over three recorded sets of ten runs the median
// of slices spread up to 20 % between runs, the better quartile at most
// 10.5 % (README.md has the table).
func betterQuartile(vals []float64, higher bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	q1, _, q3 := quartiles(vals)
	if higher {
		return q3
	}
	return q1
}

func (w *window) opsPerS() float64 { return betterQuartile(w.sliceOpsPerS(), true) }
func (w *window) p50us() float64   { return betterQuartile(w.sliceP50us(), false) }

// p99us is the median of per-block p99s, where the window is cut into as
// many equal runs of consecutive slices as leave each about 1000 samples
// or more (ten beyond its p99): sweep-cold (~370 calls/s) gets a block per
// three slices, the fast workloads a block per slice, and a window with
// under 2000 samples one block, the pooled p99. One bad second moves one
// block, not the metric.
func (w *window) p99us() float64 {
	n := len(w.sliceLat)
	blocks := min(max(len(w.pooled)/1000, 1), n)
	var per []float64
	for b := 0; b < blocks; b++ {
		var block []uint32
		for s := b * n / blocks; s < (b+1)*n/blocks; s++ {
			block = append(block, w.sliceLat[s]...)
		}
		if len(block) > 0 {
			slices.Sort(block) // each slice is sorted; their concatenation is not
			per = append(per, quantile(block, 0.99)/1e3)
		}
	}
	return median(per)
}

// sliceCPUus is each slice's process CPU time over the ops that completed
// in it; slices that completed none are skipped.
func (w *window) sliceCPUus() []float64 {
	var out []float64
	for s, n := range w.sliceOps {
		if n > 0 {
			out = append(out, float64(w.sliceCPU[s])/1e3/float64(n))
		}
	}
	return out
}

// cpuUsPerOp is the better quartile over slices of CPU time per op (the
// window's totals when no slice completed an op, as in a test shorter than
// one sweep call).
func (w *window) cpuUsPerOp() float64 {
	per := w.sliceCPUus()
	if len(per) == 0 {
		return float64(w.cpu) / 1e3 / float64(max(w.attempted-w.failed, 1))
	}
	return betterQuartile(per, false)
}

func (w *window) allocsPerOp() float64 {
	return float64(w.mallocs) / float64(max(w.attempted-w.failed, 1))
}

// liveHeapMB is HeapAlloc after a forced collection, stacks still up.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
