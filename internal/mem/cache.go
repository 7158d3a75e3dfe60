// Package mem implements the memory-hierarchy substrate: set-associative
// caches with pluggable replacement, a multi-level hierarchy with latency
// and energy accounting against the shared energy tables.
//
// The paper's "Energy-Efficient Memory Hierarchies" direction (§2.2) argues
// memory systems must be optimized for energy, not just performance; this
// package supplies the machinery E5 and the memory ablations use to
// quantify that argument.
package mem

import (
	"fmt"

	"repro/internal/stats"
)

// Policy selects a cache replacement policy.
type Policy int

const (
	// LRU evicts the least recently used way.
	LRU Policy = iota
	// FIFO evicts the oldest-installed way.
	FIFO
	// Random evicts a uniformly random way.
	Random
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case FIFO:
		return "fifo"
	default:
		return "random"
	}
}

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	lastUse    uint64
	installSeq uint64
}

// Cache is a set-associative cache with write-back, write-allocate
// semantics.
type Cache struct {
	lineBytes uint64
	sets      [][]line
	setMask   uint64
	policy    Policy
	clock     uint64
	rng       *stats.RNG

	// Hits and Misses count accesses since creation.
	Hits, Misses uint64
}

// NewCache builds a cache of sizeBytes capacity with the given line size,
// associativity and replacement policy. sizeBytes must be divisible by
// lineBytes*ways and the set count must be a power of two.
func NewCache(name string, sizeBytes, lineBytes, ways int, policy Policy) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		panic("mem: non-positive cache geometry")
	}
	if sizeBytes%(lineBytes*ways) != 0 {
		panic(fmt.Sprintf("mem: cache %s size %d not divisible by line*ways", name, sizeBytes))
	}
	nSets := sizeBytes / (lineBytes * ways)
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %s set count %d not a power of two", name, nSets))
	}
	sets := make([][]line, nSets)
	for i := range sets {
		sets[i] = make([]line, ways)
	}
	return &Cache{
		lineBytes: uint64(lineBytes),
		sets:      sets,
		setMask:   uint64(nSets - 1),
		policy:    policy,
		rng:       stats.NewRNG(0xcac4e ^ uint64(len(name))),
	}
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	// Hit is true when the line was present.
	Hit bool
	// WroteBack is true when a dirty victim was evicted.
	WroteBack bool
}

// Access performs a read (write=false) or write (write=true) of the byte
// address. Misses allocate; dirty evictions report a writeback.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.clock++
	lineAddr := addr / c.lineBytes
	set := lineAddr & c.setMask
	tag := lineAddr // the full line address is the tag
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.Hits++
			ways[i].lastUse = c.clock
			if write {
				ways[i].dirty = true
			}
			return AccessResult{Hit: true}
		}
	}
	c.Misses++
	// Choose victim: first invalid way, else per policy.
	victim := -1
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = c.pickVictim(ways)
	}
	res := AccessResult{}
	if ways[victim].valid && ways[victim].dirty {
		res.WroteBack = true
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write,
		lastUse: c.clock, installSeq: c.clock}
	return res
}

func (c *Cache) pickVictim(ways []line) int {
	switch c.policy {
	case LRU:
		best := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].lastUse < ways[best].lastUse {
				best = i
			}
		}
		return best
	case FIFO:
		best := 0
		for i := 1; i < len(ways); i++ {
			if ways[i].installSeq < ways[best].installSeq {
				best = i
			}
		}
		return best
	default:
		return c.rng.Intn(len(ways))
	}
}

// MissRate returns misses/(hits+misses), 0 when idle.
func (c *Cache) MissRate() float64 {
	tot := c.Hits + c.Misses
	if tot == 0 {
		return 0
	}
	return float64(c.Misses) / float64(tot)
}
