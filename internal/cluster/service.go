package cluster

import (
	"repro/internal/des"
	"repro/internal/stats"
)

// QueueingConfig parameterizes the DES fork-join cluster: n leaf servers,
// Poisson root arrivals fanning out to every leaf, leaf queues served FIFO.
// Unlike the Monte-Carlo model, tails here grow with utilization — the
// load-dependence the paper's predictability discussion needs.
type QueueingConfig struct {
	// Leaves is the number of leaf servers (the fanout).
	Leaves int
	// RootRate is root-request arrival rate (req/s).
	RootRate float64
	// LeafService is per-leaf service demand (seconds).
	LeafService stats.Dist
	// Requests is how many root requests to simulate.
	Requests int
	// Seed drives all randomness.
	Seed uint64
}

// QueueingResult summarizes the DES run.
type QueueingResult struct {
	// P99 is the root (join) response time including queueing.
	P99 float64
	// MeanLeafUtilization is the average leaf busy fraction.
	MeanLeafUtilization float64
	// Completed counts finished root requests.
	Completed int
}

// SimulateQueueing runs the queueing fork-join cluster.
func SimulateQueueing(cfg QueueingConfig) QueueingResult {
	if cfg.Leaves < 1 || cfg.Requests < 1 {
		panic("cluster: need leaves >= 1 and requests >= 1")
	}
	sim := des.New()
	rng := stats.NewRNG(cfg.Seed)
	leaves := make([]*des.Resource, cfg.Leaves)
	for i := range leaves {
		leaves[i] = des.NewResource(sim, 1)
	}
	lat := stats.NewSample(cfg.Requests)

	inter := stats.Exponential{Rate: cfg.RootRate}
	arrive := 0.0
	for q := 0; q < cfg.Requests; q++ {
		arrive += inter.Sample(rng)
		// Pre-sample leaf demands for determinism independent of event
		// interleaving.
		demands := make([]float64, cfg.Leaves)
		for i := range demands {
			d := cfg.LeafService.Sample(rng)
			if d < 0 {
				d = 0
			}
			demands[i] = d
		}
		sim.At(arrive, func() {
			start := sim.Now()
			pending := cfg.Leaves
			for i, r := range leaves {
				d := demands[i]
				r.Use(d, func() {
					pending--
					if pending == 0 {
						lat.Add(sim.Now() - start)
					}
				})
			}
		})
	}
	sim.Run()
	util := 0.0
	for _, r := range leaves {
		util += r.Utilization()
	}
	return QueueingResult{
		P99:                 lat.Percentile(99),
		MeanLeafUtilization: util / float64(cfg.Leaves),
		Completed:           lat.N(),
	}
}

// Warehouse models the power structure of a warehouse-scale computer.
type Warehouse struct {
	// Machines is the server count.
	Machines int
	// MachineWatts is per-server power at load.
	MachineWatts float64
	// PUE is power usage effectiveness (total facility / IT power).
	PUE float64
	// OpsPerMachine is delivered ops/s per server.
	OpsPerMachine float64
}

// TotalPowerWatts returns facility power.
func (w Warehouse) TotalPowerWatts() float64 {
	return float64(w.Machines) * w.MachineWatts * w.PUE
}

// TotalOps returns aggregate ops/s.
func (w Warehouse) TotalOps() float64 {
	return float64(w.Machines) * w.OpsPerMachine
}

// OpsPerWatt returns facility-level efficiency.
func (w Warehouse) OpsPerWatt() float64 {
	p := w.TotalPowerWatts()
	if p == 0 {
		return 0
	}
	return w.TotalOps() / p
}

// MachinesForPower returns how many machines fit a facility power budget.
func (w Warehouse) MachinesForPower(budgetWatts float64) int {
	per := w.MachineWatts * w.PUE
	if per <= 0 {
		return 0
	}
	return int(budgetWatts / per)
}
