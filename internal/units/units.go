// Package units provides physical quantities used throughout the arch21
// toolkit: energy, power, time and operation counts, together with
// SI-prefixed construction helpers and human-readable formatting.
//
// All quantities are float64 wrappers in base SI units (joules, watts,
// seconds, operations). Arithmetic between compatible quantities is
// ordinary float arithmetic; the named types exist to keep interfaces
// self-documenting and to catch unit confusion at compile time.
package units

import (
	"fmt"
	"math"
)

// Energy is an amount of energy in joules.
type Energy float64

// Power is a rate of energy in watts.
type Power float64

// Time is a duration in seconds. (Distinct from time.Duration because
// simulated time spans femtoseconds to years and is naturally float.)
type Time float64

// Ops is a count of operations (may be fractional for rate math).
type Ops float64

// Energy constructors.
const (
	Millijoule Energy = 1e-3
	Nanojoule  Energy = 1e-9
	Picojoule  Energy = 1e-12
)

// Power constructors.
const (
	Watt      Power = 1
	Megawatt  Power = 1e6
	Kilowatt  Power = 1e3
	Milliwatt Power = 1e-3
	Microwatt Power = 1e-6
)

// Time constructors.
const (
	Millisecond Time = 1e-3
	Microsecond Time = 1e-6
	Nanosecond  Time = 1e-9
)

// Ops constructors.
const (
	GigaOp Ops = 1e9
	TeraOp Ops = 1e12
	PetaOp Ops = 1e15
	ExaOp  Ops = 1e18
)

var siPrefixes = []struct {
	exp  float64
	name string
}{
	{1e18, "E"}, {1e15, "P"}, {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},
	{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
}

// SI formats v with an SI prefix and the given unit suffix, e.g.
// SI(1.5e-12, "J") == "1.50pJ". Zero renders as "0<unit>".
func SI(v float64, unit string) string {
	if v == 0 {
		return "0" + unit
	}
	av := math.Abs(v)
	for _, p := range siPrefixes {
		if av >= p.exp {
			return fmt.Sprintf("%.3g%s%s", v/p.exp, p.name, unit)
		}
	}
	return fmt.Sprintf("%.3g%s", v, unit)
}

// String renders the energy with an SI prefix.
func (e Energy) String() string { return SI(float64(e), "J") }

// String renders the power with an SI prefix.
func (p Power) String() string { return SI(float64(p), "W") }

// String renders the duration with an SI prefix.
func (t Time) String() string { return SI(float64(t), "s") }

// String renders the op count with an SI prefix.
func (o Ops) String() string { return SI(float64(o), "op") }
