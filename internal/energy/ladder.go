package energy

import (
	"repro/internal/units"
)

// Platform is one rung of the paper's efficiency ladder (§2.2 "Energy
// Across the Layers"): a performance goal inside a power envelope.
type Platform struct {
	// Name identifies the rung: sensor, portable, departmental, datacenter.
	Name string
	// TargetOpsPerSec is the end-of-decade performance goal.
	TargetOpsPerSec units.Ops
	// PowerBudget is the envelope the goal must fit in.
	PowerBudget units.Power
	// TodayOpsPerWatt is the toolkit's model of 2012-era delivered
	// efficiency for the platform class. The paper pegs portable devices at
	// ~10 giga-operations/watt; servers and datacenters deliver far less
	// general-purpose work per watt once infrastructure overheads (memory,
	// network, cooling, PUE) are charged.
	TodayOpsPerWatt float64
}

// Ladder returns the paper's four target platforms:
// a giga-op sensor at 10 mW, a tera-op portable at 10 W, a peta-op
// departmental server at 10 kW, and an exa-op datacenter at 10 MW —
// all demanding 100 GOPS/W.
func Ladder() []Platform {
	return []Platform{
		{"sensor", units.GigaOp, 10 * units.Milliwatt, 1e9},
		{"portable", units.TeraOp, 10 * units.Watt, 1e10},
		{"departmental", units.PetaOp, 10 * units.Kilowatt, 5e8},
		{"datacenter", units.ExaOp, 10 * units.Megawatt, 3e8},
	}
}

// TargetOpsPerWatt returns the efficiency the rung's goal demands.
func (p Platform) TargetOpsPerWatt() float64 {
	return float64(p.TargetOpsPerSec) / float64(p.PowerBudget)
}

// Gap returns the improvement factor required over today's efficiency.
func (p Platform) Gap() float64 {
	return p.TargetOpsPerWatt() / p.TodayOpsPerWatt
}
