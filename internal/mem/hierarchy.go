package mem

import (
	"repro/internal/energy"
	"repro/internal/units"
)

// Level couples a cache with its access latency and per-access energy.
type Level struct {
	Cache   *Cache
	Latency units.Time
	// EnergyPerAccess is charged on every probe of this level (hit or
	// miss), per 64-bit word of the request.
	EnergyPerAccess units.Energy
}

// Hierarchy is a multi-level cache hierarchy backed by DRAM, accounting
// time and energy per access against the shared energy table.
type Hierarchy struct {
	Levels []Level
	// DRAMLatency is the backing-store access time.
	DRAMLatency units.Time
	// DRAMEnergy is the backing-store access energy per 64-bit word.
	DRAMEnergy units.Energy

	// DRAMAccesses counts trips to the backing store.
	DRAMAccesses uint64
	// TotalAccesses counts calls to Access.
	TotalAccesses uint64
	// TotalLatency accumulates access latencies.
	TotalLatency units.Time
	// TotalEnergy accumulates access energies.
	TotalEnergy units.Energy
}

// StandardHierarchy builds a 3-level hierarchy (32KB L1 / 256KB L2 / 8MB
// L3, 64B lines) with latencies and energies taken from the given table.
func StandardHierarchy(tbl energy.Table) *Hierarchy {
	return &Hierarchy{
		Levels: []Level{
			{NewCache("l1", 32<<10, 64, 8, LRU), 1 * units.Nanosecond, tbl.SRAM32KB},
			{NewCache("l2", 256<<10, 64, 8, LRU), 5 * units.Nanosecond, tbl.SRAM256KB},
			{NewCache("l3", 8<<20, 64, 16, LRU), 20 * units.Nanosecond, tbl.SRAM1MB},
		},
		DRAMLatency: 100 * units.Nanosecond,
		DRAMEnergy:  tbl.DRAM,
	}
}

// EmbeddedHierarchy builds a sensor/edge-class 2-level hierarchy (8KB L1 /
// 64KB L2), where modest working sets already spill to DRAM — the regime in
// which software locality management (E20) matters most.
func EmbeddedHierarchy(tbl energy.Table) *Hierarchy {
	return &Hierarchy{
		Levels: []Level{
			{NewCache("l1", 8<<10, 64, 4, LRU), 1 * units.Nanosecond, tbl.SRAM8KB},
			{NewCache("l2", 64<<10, 64, 8, LRU), 5 * units.Nanosecond, tbl.SRAM32KB},
		},
		DRAMLatency: 100 * units.Nanosecond,
		DRAMEnergy:  tbl.DRAM,
	}
}

// Access performs one 64-bit access at addr, probing levels in order until
// a hit, filling on the way back. It returns the level index that hit
// (len(Levels) means DRAM) plus the latency and energy spent.
func (h *Hierarchy) Access(addr uint64, write bool) (level int, lat units.Time, e units.Energy) {
	h.TotalAccesses++
	for i := range h.Levels {
		lv := &h.Levels[i]
		lat += lv.Latency
		e += lv.EnergyPerAccess
		res := lv.Cache.Access(addr, write)
		if res.WroteBack {
			// Dirty victim written to the next level down: charge its
			// energy (or DRAM's for the last level).
			if i+1 < len(h.Levels) {
				e += h.Levels[i+1].EnergyPerAccess
			} else {
				e += h.DRAMEnergy
				h.DRAMAccesses++
			}
		}
		if res.Hit {
			h.TotalLatency += lat
			h.TotalEnergy += e
			return i, lat, e
		}
	}
	lat += h.DRAMLatency
	e += h.DRAMEnergy
	h.DRAMAccesses++
	h.TotalLatency += lat
	h.TotalEnergy += e
	return len(h.Levels), lat, e
}

// AMAT returns average memory access time over all accesses so far.
func (h *Hierarchy) AMAT() units.Time {
	if h.TotalAccesses == 0 {
		return 0
	}
	return h.TotalLatency / units.Time(float64(h.TotalAccesses))
}
