package noc

import (
	"repro/internal/stats"
)

// FlitSim is a cycle-accurate single-flit-packet mesh simulator with
// per-link FIFO queues and dimension-ordered routing. It adds what the
// analytic mesh model cannot: contention. Offered load beyond the
// bisection-limited saturation point shows up as unbounded queueing delay —
// the "orchestrating communication" problem of §2.4.
type FlitSim struct {
	// Mesh supplies topology (links carry one flit per cycle).
	Mesh *Mesh
	// InjectionRate is flits per node per cycle (Bernoulli).
	InjectionRate float64
	// WarmupCycles are excluded from latency statistics.
	WarmupCycles int
	// MeasureCycles are the measured cycles after warmup.
	MeasureCycles int
	// Seed drives injection and destinations.
	Seed uint64
	// QueueCap bounds each link queue; injections into a full source
	// queue are dropped and counted (models back-pressure at the NIC).
	QueueCap int
}

// flit is one in-flight packet.
type flit struct {
	dst      int
	injected int
	measured bool
	movedAt  int
}

// link directions.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	dirZPlus
	dirZMinus
	dirCount
)

// FlitResult summarizes a simulation.
type FlitResult struct {
	// MeanLatency is in cycles (measured flits only).
	MeanLatency float64
	// Throughput is delivered flits per node per cycle over the
	// measurement window.
	Throughput float64
	// Delivered counts measured deliveries.
	Delivered int
	// DroppedAtSource counts injections refused by a full source queue.
	DroppedAtSource int
}

// Run executes the simulation.
func (f FlitSim) Run() FlitResult {
	m := f.Mesh
	n := m.Nodes()
	if f.QueueCap <= 0 {
		f.QueueCap = 64
	}
	rng := stats.NewRNG(f.Seed)
	queues := make([][][]*flit, n) // queues[node][dir]
	for i := range queues {
		queues[i] = make([][]*flit, dirCount)
	}
	latSum := 0.0 // summed latency of the flits Delivered counts
	res := FlitResult{}
	total := f.WarmupCycles + f.MeasureCycles

	// nextDir picks the output direction at node for destination dst
	// under X, then Y, then Z routing; returns -1 when node == dst.
	nextDir := func(node, dst int) int {
		a, b := m.NodeCoord(node), m.NodeCoord(dst)
		switch {
		case b.X > a.X:
			return dirXPlus
		case b.X < a.X:
			return dirXMinus
		case b.Y > a.Y:
			return dirYPlus
		case b.Y < a.Y:
			return dirYMinus
		case b.Z > a.Z:
			return dirZPlus
		case b.Z < a.Z:
			return dirZMinus
		}
		return -1
	}
	neighbor := func(node, dir int) int {
		c := m.NodeCoord(node)
		switch dir {
		case dirXPlus:
			c.X++
		case dirXMinus:
			c.X--
		case dirYPlus:
			c.Y++
		case dirYMinus:
			c.Y--
		case dirZPlus:
			c.Z++
		case dirZMinus:
			c.Z--
		}
		return c.X + c.Y*m.W + c.Z*m.W*m.H
	}

	for cycle := 0; cycle < total; cycle++ {
		// Inject.
		for node := 0; node < n; node++ {
			if !rng.Bool(f.InjectionRate) {
				continue
			}
			dst := rng.Intn(n)
			if dst == node {
				continue
			}
			dir := nextDir(node, dst)
			if len(queues[node][dir]) >= f.QueueCap {
				res.DroppedAtSource++
				continue
			}
			queues[node][dir] = append(queues[node][dir], &flit{
				dst:      dst,
				injected: cycle,
				measured: cycle >= f.WarmupCycles,
				movedAt:  -1,
			})
		}
		// Advance: one flit per link per cycle.
		for node := 0; node < n; node++ {
			for dir := 0; dir < dirCount; dir++ {
				q := queues[node][dir]
				if len(q) == 0 {
					continue
				}
				head := q[0]
				if head.movedAt == cycle {
					continue
				}
				next := neighbor(node, dir)
				if next == head.dst {
					// Deliver.
					queues[node][dir] = q[1:]
					if head.measured && cycle < total {
						if cycle >= f.WarmupCycles {
							latSum += float64(cycle + 1 - head.injected)
							res.Delivered++
						}
					}
					continue
				}
				ndir := nextDir(next, head.dst)
				if len(queues[next][ndir]) >= f.QueueCap {
					continue // back-pressure: stall this link
				}
				head.movedAt = cycle
				queues[node][dir] = q[1:]
				queues[next][ndir] = append(queues[next][ndir], head)
			}
		}
	}
	if res.Delivered > 0 {
		res.MeanLatency = latSum / float64(res.Delivered)
	}
	if f.MeasureCycles > 0 {
		res.Throughput = float64(res.Delivered) / float64(n) / float64(f.MeasureCycles)
	}
	return res
}

// SaturationSweep runs the simulator across injection rates and returns
// (rate, meanLatency, throughput) triples.
func SaturationSweep(m *Mesh, rates []float64, seed uint64) [][3]float64 {
	out := make([][3]float64, 0, len(rates))
	for _, r := range rates {
		res := FlitSim{
			Mesh:          m,
			InjectionRate: r,
			WarmupCycles:  2000,
			MeasureCycles: 8000,
			Seed:          seed,
		}.Run()
		out = append(out, [3]float64{r, res.MeanLatency, res.Throughput})
	}
	return out
}
