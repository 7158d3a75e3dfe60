package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/stats"
)

func TestCacheHitsOnRepeat(t *testing.T) {
	c := NewCache("t", 1<<10, 64, 2, LRU)
	if res := c.Access(0x100, false); res.Hit {
		t.Fatal("cold access should miss")
	}
	if res := c.Access(0x100, false); !res.Hit {
		t.Fatal("second access should hit")
	}
	if res := c.Access(0x104, false); !res.Hit {
		t.Fatal("same-line access should hit")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way cache, 64B lines, 2 sets (256B total).
	c := NewCache("t", 256, 64, 2, LRU)
	// Three lines mapping to set 0: line addresses 0, 2, 4.
	c.Access(0*64, false)
	c.Access(2*64, false)
	c.Access(0*64, false) // touch line 0: line 2 is now LRU
	c.Access(4*64, false) // evicts line 2
	// Hits on the two resident lines evict nothing, so line 2 is probed last.
	if !c.Access(0*64, false).Hit {
		t.Fatal("line 0 should survive (recently used)")
	}
	if !c.Access(4*64, false).Hit {
		t.Fatal("line 4 should be resident")
	}
	if c.Access(2*64, false).Hit {
		t.Fatal("line 2 should be evicted (LRU)")
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache("t", 256, 64, 2, FIFO)
	c.Access(0*64, false)
	c.Access(2*64, false)
	c.Access(0*64, false) // FIFO ignores recency
	c.Access(4*64, false) // evicts line 0 (oldest installed)
	if !c.Access(2*64, false).Hit || !c.Access(4*64, false).Hit {
		t.Fatal("lines 2 and 4 should be resident")
	}
	if c.Access(0*64, false).Hit {
		t.Fatal("line 0 should be evicted under FIFO")
	}
}

func TestCacheWriteback(t *testing.T) {
	c := NewCache("t", 256, 64, 2, LRU)
	c.Access(0*64, true) // dirty
	c.Access(2*64, false)
	res := c.Access(4*64, false) // evicts dirty line 0
	if !res.WroteBack {
		t.Fatal("dirty eviction should report writeback")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewCache("t", 0, 64, 2, LRU) },
		func() { NewCache("t", 100, 64, 2, LRU) },    // not divisible
		func() { NewCache("t", 64*2*3, 64, 2, LRU) }, // 3 sets: not pow2
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestCacheMissRate(t *testing.T) {
	c := NewCache("t", 1<<10, 64, 2, LRU)
	if c.MissRate() != 0 {
		t.Fatalf("idle miss rate = %v", c.MissRate())
	}
	c.Access(0, false)
	c.Access(0, false)
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", c.MissRate())
	}
}

// Property: accessing a working set that fits in the cache twice gives a
// perfect second-pass hit rate for LRU.
func TestQuickLRUFitWorkingSet(t *testing.T) {
	f := func(seed uint64) bool {
		c := NewCache("t", 8<<10, 64, 4, LRU)
		r := stats.NewRNG(seed)
		// 64 distinct lines < 128-line capacity.
		addrs := make([]uint64, 64)
		for i := range addrs {
			addrs[i] = uint64(i) * 64
		}
		r.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		for _, a := range addrs {
			c.Access(a, false)
		}
		for _, a := range addrs {
			if !c.Access(a, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := StandardHierarchy(energy.Table45())
	lvl, lat1, e1 := h.Access(0, false)
	if lvl != 3 {
		t.Fatalf("cold access level = %d, want 3 (DRAM)", lvl)
	}
	lvl, lat2, e2 := h.Access(0, false)
	if lvl != 0 {
		t.Fatalf("warm access level = %d, want 0 (L1)", lvl)
	}
	if lat2 >= lat1 || e2 >= e1 {
		t.Fatal("L1 hit should be cheaper than DRAM fill")
	}
	if h.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d", h.DRAMAccesses)
	}
	if h.AMAT() <= 0 || h.TotalEnergy <= 0 {
		t.Fatal("aggregate metrics should be positive")
	}
}

func TestHierarchyEmptyMetrics(t *testing.T) {
	if h := StandardHierarchy(energy.Table45()); h.AMAT() != 0 || h.TotalAccesses != 0 {
		t.Fatal("a fresh hierarchy has no accesses")
	}
}

func TestHierarchyStreamingEnergyGap(t *testing.T) {
	// Streaming (miss-heavy) traffic must cost far more energy/access than
	// resident traffic — E5's shape.
	h := StandardHierarchy(energy.Table45())
	for i := 0; i < 10000; i++ {
		h.Access(uint64(i)*64*97, false) // pathological stride: all misses
	}
	stream := float64(h.TotalEnergy) / float64(h.TotalAccesses)
	h = StandardHierarchy(energy.Table45())
	for i := 0; i < 10000; i++ {
		h.Access(uint64(i%16)*64, false) // resident set
	}
	resident := float64(h.TotalEnergy) / float64(h.TotalAccesses)
	if stream < 5*resident {
		t.Fatalf("stream %v vs resident %v: want >= 5x gap", stream, resident)
	}
}
