package nvm

import (
	"repro/internal/stats"
)

// Mapper translates logical line addresses to physical slots, optionally
// remapping over time to level wear. Implementations are deterministic
// given their construction parameters.
type Mapper interface {
	// Map returns the physical slot currently holding the logical line.
	Map(logical int) int
	// OnWrite notifies the mapper of a write to the logical line; the
	// mapper may perform remapping moves and must return how many extra
	// physical writes those moves cost (data copies).
	OnWrite(logical int) (extraWrites []int)
	// Slots returns the number of physical slots managed.
	Slots() int
}

// DirectMapper performs no leveling: logical line i lives in slot i
// forever. It is the "none" ablation baseline.
type DirectMapper struct{ N int }

// Map implements Mapper.
func (d DirectMapper) Map(logical int) int { return logical }

// OnWrite implements Mapper.
func (d DirectMapper) OnWrite(int) []int { return nil }

// Slots implements Mapper.
func (d DirectMapper) Slots() int { return d.N }

// StartGap implements the Qureshi et al. (MICRO 2009) start-gap wear
// leveler: N logical lines live in N+1 physical slots, one of which is a
// gap. Every Psi writes, the line adjacent to the gap moves into it,
// rotating the whole array by one slot every N+1 moves. The algebraic
// hardware mapping is simulated here with explicit tables, which is
// behaviorally identical.
type StartGap struct {
	// Psi is the gap-move period in writes (smaller = faster leveling,
	// more move overhead).
	Psi int

	slotOf []int // logical -> physical
	lineIn []int // physical -> logical, -1 for the gap
	gap    int
	writes int
}

// NewStartGap creates a start-gap leveler for n logical lines.
func NewStartGap(n, psi int) *StartGap {
	if n < 1 || psi < 1 {
		panic("nvm: start-gap needs n >= 1 and psi >= 1")
	}
	sg := &StartGap{Psi: psi, slotOf: make([]int, n), lineIn: make([]int, n+1)}
	for i := 0; i < n; i++ {
		sg.slotOf[i] = i
		sg.lineIn[i] = i
	}
	sg.gap = n
	sg.lineIn[n] = -1
	return sg
}

// Map implements Mapper.
func (sg *StartGap) Map(logical int) int { return sg.slotOf[logical] }

// Slots implements Mapper.
func (sg *StartGap) Slots() int { return len(sg.lineIn) }

// OnWrite implements Mapper: every Psi writes it moves the line before the
// gap into the gap (one extra physical write to the gap slot).
func (sg *StartGap) OnWrite(int) []int {
	sg.writes++
	if sg.writes%sg.Psi != 0 {
		return nil
	}
	n1 := len(sg.lineIn)
	src := (sg.gap - 1 + n1) % n1
	moved := sg.lineIn[src]
	if moved >= 0 {
		sg.slotOf[moved] = sg.gap
	}
	sg.lineIn[sg.gap] = moved
	sg.lineIn[src] = -1
	dest := sg.gap
	sg.gap = src
	return []int{dest} // the copy writes the destination slot
}

// RandomSwap is a table-based leveler: every Psi writes it swaps two
// uniformly random lines' slots (two extra writes). Randomized remapping
// also defeats adversarial (deterministic-pattern) wear attacks, which pure
// start-gap rotation does not.
type RandomSwap struct {
	// Psi is the swap period in writes.
	Psi int

	slotOf []int
	lineIn []int
	writes int
	rng    *stats.RNG
}

// NewRandomSwap creates a random-swap leveler for n lines.
func NewRandomSwap(n, psi int, seed uint64) *RandomSwap {
	if n < 1 || psi < 1 {
		panic("nvm: random-swap needs n >= 1 and psi >= 1")
	}
	rs := &RandomSwap{Psi: psi, slotOf: make([]int, n), lineIn: make([]int, n),
		rng: stats.NewRNG(seed)}
	for i := 0; i < n; i++ {
		rs.slotOf[i] = i
		rs.lineIn[i] = i
	}
	return rs
}

// Map implements Mapper.
func (rs *RandomSwap) Map(logical int) int { return rs.slotOf[logical] }

// Slots implements Mapper.
func (rs *RandomSwap) Slots() int { return len(rs.lineIn) }

// OnWrite implements Mapper.
func (rs *RandomSwap) OnWrite(int) []int {
	rs.writes++
	if rs.writes%rs.Psi != 0 {
		return nil
	}
	a := rs.rng.Intn(len(rs.slotOf))
	b := rs.rng.Intn(len(rs.slotOf))
	if a == b {
		return nil
	}
	sa, sb := rs.slotOf[a], rs.slotOf[b]
	rs.slotOf[a], rs.slotOf[b] = sb, sa
	rs.lineIn[sa], rs.lineIn[sb] = b, a
	return []int{sa, sb} // both slots rewritten by the swap
}

// WearResult summarizes a wear simulation.
type WearResult struct {
	// WritesUntilFailure is demand writes completed when the first cell
	// exceeded endurance (== demand writes issued if no failure).
	WritesUntilFailure int
	// Failed is true when a cell wore out before the demand stream ended.
	Failed bool
}

// LifetimeFraction returns achieved demand writes over the ideal
// (endurance × slots) — 1.0 means perfect leveling.
func (w WearResult) LifetimeFraction(endurance float64, slots int) float64 {
	ideal := endurance * float64(slots)
	if ideal == 0 {
		return 0
	}
	return float64(w.WritesUntilFailure) / ideal
}

// SimulateWear drives demand writes drawn from pattern (returning a logical
// line per call) through the mapper until a slot exceeds endurance or
// maxWrites demand writes complete.
func SimulateWear(m Mapper, endurance float64, maxWrites int, pattern func() int) WearResult {
	wear := make([]float64, m.Slots())
	res := WearResult{}
	bump := func(slot int) bool {
		wear[slot]++
		return wear[slot] > endurance
	}
	for i := 0; i < maxWrites; i++ {
		logical := pattern()
		if bump(m.Map(logical)) {
			res.Failed = true
			res.WritesUntilFailure = i
			break
		}
		for _, slot := range m.OnWrite(logical) {
			if bump(slot) {
				res.Failed = true
				res.WritesUntilFailure = i
				break
			}
		}
		if res.Failed {
			break
		}
	}
	if !res.Failed {
		res.WritesUntilFailure = maxWrites
	}
	return res
}
