package workload

import (
	"fmt"

	"repro/internal/stats"
)

// Task is a unit of work in a task DAG. Work is in abstract operation
// counts; Deps lists task IDs that must complete first.
type Task struct {
	ID   int
	Work float64
	Deps []int
}

// DAG is a dependency graph of tasks with IDs 0..len(Tasks)-1 in
// topological order (every dependency has a smaller ID).
type DAG struct {
	Tasks []Task
}

// DAGConfig parameterizes layered random DAG generation.
type DAGConfig struct {
	// Layers is the number of dependency levels.
	Layers int
	// Width is the number of tasks per layer.
	Width int
	// EdgeProb is the probability a task depends on a given task of the
	// previous layer (at least one edge is always added for layers > 0).
	EdgeProb float64
	// Work is the task work distribution.
	Work stats.Dist
}

// GenerateDAG builds a layered random DAG.
func GenerateDAG(cfg DAGConfig, r *stats.RNG) *DAG {
	if cfg.Layers < 1 || cfg.Width < 1 {
		panic("workload: DAG needs Layers >= 1 and Width >= 1")
	}
	d := &DAG{}
	id := 0
	prevLayer := []int{}
	for l := 0; l < cfg.Layers; l++ {
		var layer []int
		for w := 0; w < cfg.Width; w++ {
			t := Task{ID: id, Work: cfg.Work.Sample(r)}
			if t.Work < 0 {
				t.Work = 0
			}
			if l > 0 {
				for _, p := range prevLayer {
					if r.Bool(cfg.EdgeProb) {
						t.Deps = append(t.Deps, p)
					}
				}
				if len(t.Deps) == 0 {
					t.Deps = append(t.Deps, prevLayer[r.Intn(len(prevLayer))])
				}
			}
			d.Tasks = append(d.Tasks, t)
			layer = append(layer, id)
			id++
		}
		prevLayer = layer
	}
	return d
}

// Fork creates a flat fork-join DAG: n independent tasks.
func Fork(n int, work stats.Dist, r *stats.RNG) *DAG {
	d := &DAG{Tasks: make([]Task, n)}
	for i := 0; i < n; i++ {
		w := work.Sample(r)
		if w < 0 {
			w = 0
		}
		d.Tasks[i] = Task{ID: i, Work: w}
	}
	return d
}

// Validate checks topological ordering and dependency bounds.
func (d *DAG) Validate() error {
	for i, t := range d.Tasks {
		if t.ID != i {
			return fmt.Errorf("workload: task %d has ID %d", i, t.ID)
		}
		for _, dep := range t.Deps {
			if dep < 0 || dep >= i {
				return fmt.Errorf("workload: task %d has invalid dep %d", i, dep)
			}
		}
	}
	return nil
}
