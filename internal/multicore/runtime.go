package multicore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Runner executes a workload.DAG on real goroutine workers, measuring
// wall-clock speedup. Two scheduling modes support the ablation the paper's
// parallelism agenda motivates: work stealing (dynamic load balance) versus
// static partitioning.
type Runner struct {
	// Workers is the number of worker goroutines (>= 1).
	Workers int
	// Steal enables work stealing; when false, tasks are statically
	// assigned round-robin at readiness time.
	Steal bool
}

// RunStats reports one execution.
type RunStats struct {
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
	// Steals counts successful steals.
	Steals uint64
	// TasksRun counts executed tasks (must equal len(dag.Tasks)).
	TasksRun uint64
	// WorkPerWorker is the total task work each worker executed; its
	// max/mean ratio measures load balance independent of wall-clock
	// noise.
	WorkPerWorker []float64
}

// deque is a mutex-guarded work queue. Owners pop LIFO (cache locality),
// thieves steal FIFO (largest remaining subtrees first) — the classic
// work-stealing discipline.
type deque struct {
	mu    sync.Mutex
	tasks []int
}

func (d *deque) push(t int) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque) popBack() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.tasks)
	if n == 0 {
		return 0, false
	}
	t := d.tasks[n-1]
	d.tasks = d.tasks[:n-1]
	return t, true
}

func (d *deque) stealFront() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return 0, false
	}
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t, true
}

// Run executes the DAG; grain is invoked once per task with the task's
// work amount and must perform the actual computation. It returns execution
// statistics. Run panics if the DAG fails validation.
func (r Runner) Run(d *workload.DAG, grain func(work float64)) RunStats {
	if r.Workers < 1 {
		panic("multicore: need at least one worker")
	}
	if err := d.Validate(); err != nil {
		panic(fmt.Sprintf("multicore: %v", err))
	}
	n := len(d.Tasks)
	if n == 0 {
		return RunStats{}
	}

	// Dependency bookkeeping.
	remaining := make([]int32, n)
	dependents := make([][]int, n)
	for i, t := range d.Tasks {
		remaining[i] = int32(len(t.Deps))
		for _, dep := range t.Deps {
			dependents[dep] = append(dependents[dep], i)
		}
	}

	queues := make([]*deque, r.Workers)
	for i := range queues {
		queues[i] = &deque{}
	}
	var tasksDone atomic.Uint64
	var steals atomic.Uint64
	var rrCounter atomic.Uint64 // round-robin target for ready tasks

	enqueue := func(task, worker int) {
		if r.Steal {
			queues[worker].push(task)
		} else {
			queues[int(rrCounter.Add(1))%r.Workers].push(task)
		}
	}
	// Seed initial ready tasks round-robin in both modes.
	seedRR := 0
	for i := range d.Tasks {
		if remaining[i] == 0 {
			queues[seedRR%r.Workers].push(i)
			seedRR++
		}
	}

	start := time.Now()
	workPer := make([]float64, r.Workers)
	var wg sync.WaitGroup
	for w := 0; w < r.Workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(self)*2654435761 + 1)
			for tasksDone.Load() < uint64(n) {
				task, ok := queues[self].popBack()
				if !ok && r.Steal {
					// Try a few random victims.
					for attempt := 0; attempt < r.Workers; attempt++ {
						victim := rng.Intn(r.Workers)
						if victim == self {
							continue
						}
						if task, ok = queues[victim].stealFront(); ok {
							steals.Add(1)
							break
						}
					}
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				grain(d.Tasks[task].Work)
				workPer[self] += d.Tasks[task].Work
				for _, dep := range dependents[task] {
					if atomic.AddInt32(&remaining[dep], -1) == 0 {
						enqueue(dep, self)
					}
				}
				tasksDone.Add(1)
			}
		}(w)
	}
	wg.Wait()
	return RunStats{
		Elapsed:       time.Since(start),
		Steals:        steals.Load(),
		TasksRun:      tasksDone.Load(),
		WorkPerWorker: workPer,
	}
}

// SpinWork is a grain function performing `work` iterations of integer
// arithmetic; the sink defeats dead-code elimination.
var spinSink atomic.Uint64

// SpinWork burns approximately `work` arithmetic operations of CPU time.
func SpinWork(work float64) {
	var x uint64 = 88172645463325252
	for i := 0; i < int(work); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}
