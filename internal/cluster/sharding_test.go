package cluster

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestModuloBalanced(t *testing.T) {
	sh := ModuloSharder{N: 16}
	st := MeasureLoad(sh, 100000, 0, stats.NewRNG(1))
	if st.MaxOverMean > 1.05 {
		t.Fatalf("modulo imbalance = %v, want ~1", st.MaxOverMean)
	}
}

func TestConsistentHashCoversAllServers(t *testing.T) {
	ch := NewConsistentHash(16, 128)
	st := MeasureLoad(ch, 100000, 0, stats.NewRNG(2))
	for s, l := range st.PerServer {
		if l == 0 {
			t.Fatalf("server %d received no keys", s)
		}
	}
}

func TestVNodesImproveBalance(t *testing.T) {
	few := MeasureLoad(NewConsistentHash(16, 2), 200000, 0, stats.NewRNG(3))
	many := MeasureLoad(NewConsistentHash(16, 256), 200000, 0, stats.NewRNG(3))
	if many.MaxOverMean >= few.MaxOverMean {
		t.Fatalf("more vnodes should balance better: %v vs %v",
			many.MaxOverMean, few.MaxOverMean)
	}
	if many.MaxOverMean > 1.3 {
		t.Fatalf("256-vnode imbalance = %v, want < 1.3", many.MaxOverMean)
	}
}

func TestReshardingCost(t *testing.T) {
	const keys = 100000
	// Modulo: adding one server moves almost everything.
	modMoved := MovedFraction(ModuloSharder{N: 16}, ModuloSharder{N: 17}, keys)
	if modMoved < 0.8 {
		t.Fatalf("modulo reshard moved %v, want > 0.8", modMoved)
	}
	// Consistent hashing: ~1/17 of keys.
	chMoved := MovedFraction(NewConsistentHash(16, 128), NewConsistentHash(17, 128), keys)
	if chMoved > 0.15 {
		t.Fatalf("consistent reshard moved %v, want ~1/17", chMoved)
	}
	if chMoved <= 0 {
		t.Fatal("some keys must move to the new server")
	}
}

func TestSkewDominatesPlacement(t *testing.T) {
	// With Zipf-1.1 popularity, even perfect placement cannot balance:
	// the hottest key dominates. max/mean must blow up for both policies.
	mod := MeasureLoad(ModuloSharder{N: 16}, 10000, 1.1, stats.NewRNG(5))
	ch := MeasureLoad(NewConsistentHash(16, 128), 10000, 1.1, stats.NewRNG(5))
	if mod.MaxOverMean < 2 || ch.MaxOverMean < 2 {
		t.Fatalf("skewed load should defeat placement: mod %v ch %v",
			mod.MaxOverMean, ch.MaxOverMean)
	}
}

func TestShardingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad ring config did not panic")
		}
	}()
	NewConsistentHash(0, 10)
}

func TestPlaceKStartsAtOwnerDistinctAndComplete(t *testing.T) {
	ch := NewConsistentHash(5, 64)
	for key := uint64(0); key < 2000; key++ {
		chain := ch.PlaceK(nil, key, 5)
		if len(chain) != 5 {
			t.Fatalf("key %d: chain %v should cover all 5 servers", key, chain)
		}
		if chain[0] != ch.Place(key) {
			t.Fatalf("key %d: chain starts at %d, owner is %d", key, chain[0], ch.Place(key))
		}
		seen := map[int]bool{}
		for _, s := range chain {
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("key %d: chain %v has out-of-range or duplicate server", key, chain)
			}
			seen[s] = true
		}
	}
}

func TestPlaceKClampsAndDegenerates(t *testing.T) {
	ch := NewConsistentHash(3, 16)
	if got := ch.PlaceK(nil, 42, 10); len(got) != 3 {
		t.Fatalf("k past server count should clamp to 3, got %v", got)
	}
	if got := ch.PlaceK(nil, 42, 0); got != nil {
		t.Fatalf("k=0 should yield nil, got %v", got)
	}
	if got := ch.PlaceK(nil, 42, 1); len(got) != 1 || got[0] != ch.Place(42) {
		t.Fatalf("k=1 should be exactly the owner, got %v", got)
	}
}

// PlaceK appends exactly the chain the seen-slice construction it
// replaced returned, for every k from 0 past the server count, and
// allocates nothing into a buffer with room for k.
func TestPlaceKAppendsTheSameChainWithoutAllocating(t *testing.T) {
	const n = 5
	ch := NewConsistentHash(n, 64)
	reference := func(key uint64, k int) []int {
		k = min(k, ch.n)
		if k < 1 {
			return nil
		}
		h := splitmix(key)
		start := sort.Search(len(ch.points), func(i int) bool { return ch.points[i].hash >= h })
		out := make([]int, 0, k)
		seen := make([]bool, ch.n)
		for i := 0; i < len(ch.points) && len(out) < k; i++ {
			p := ch.points[(start+i)%len(ch.points)]
			if !seen[p.server] {
				seen[p.server] = true
				out = append(out, p.server)
			}
		}
		return out
	}
	buf := make([]int, 0, n+1)
	prefix := []int{0, 1, 2, 3, 4} // every server: distinctness is among the appended entries only
	for key := uint64(0); key < 10000; key++ {
		for k := 0; k <= n+1; k++ {
			want := reference(key, k)
			if got := ch.PlaceK(buf[:0], key, k); !slices.Equal(got, want) {
				t.Fatalf("key %d k %d: PlaceK %v, reference %v", key, k, got, want)
			}
			if got := ch.PlaceK(prefix, key, k); !slices.Equal(got[:n], prefix) || !slices.Equal(got[n:], want) {
				t.Fatalf("key %d k %d: PlaceK after a prefix %v, reference %v", key, k, got, want)
			}
		}
	}
	for k := 0; k <= n+1; k++ {
		if got := testing.AllocsPerRun(100, func() { buf = ch.PlaceK(buf[:0], 42, k) }); got != 0 {
			t.Errorf("k %d: PlaceK into a buffer of cap %d allocates %v times", k, cap(buf), got)
		}
	}
}

// The failover chain is the routing contract: element i+1 is where keys
// fail over when element i dies. Model the dead owner directly — a ring
// with the owner's points removed but identical geometry otherwise —
// and the survivor ring's owner must be exactly chain[1], per key.
func TestPlaceKPredictsFailover(t *testing.T) {
	ch := NewConsistentHash(4, 64)
	for key := uint64(0); key < 500; key++ {
		chain := ch.PlaceK(nil, key, 2)
		owner, next := chain[0], chain[1]
		if owner == next {
			t.Fatalf("key %d: owner and successor identical", key)
		}
		survivors := &ConsistentHash{n: ch.n}
		for _, p := range ch.points {
			if p.server != owner {
				survivors.points = append(survivors.points, p)
			}
		}
		if got := survivors.Place(key); got != next {
			t.Fatalf("key %d: with owner %d dead, survivor ring places on %d but PlaceK promised %d",
				key, owner, got, next)
		}
	}
}

// Property: placement is deterministic and in range for both sharders.
func TestQuickPlacementSane(t *testing.T) {
	ch := NewConsistentHash(8, 64)
	mod := ModuloSharder{N: 8}
	f := func(key uint64) bool {
		a, b := ch.Place(key), ch.Place(key)
		if a != b || a < 0 || a >= 8 {
			return false
		}
		m := mod.Place(key)
		return m >= 0 && m < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
