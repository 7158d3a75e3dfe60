package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEnergyPerOpDivergesAtLowIntensity(t *testing.T) {
	r := StandardRoofline()
	e1 := r.EnergyPerOp(10)   // compute-dominated
	e2 := r.EnergyPerOp(0.01) // memory-dominated
	if e2 < 100*e1 {
		t.Fatalf("low-intensity energy %v should dwarf high-intensity %v", e2, e1)
	}
	if !math.IsInf(r.EnergyPerOp(0), 1) {
		t.Fatal("zero intensity energy should be infinite")
	}
}

func TestEnergyBalanceIntensity(t *testing.T) {
	r := StandardRoofline()
	bal := r.EnergyBalanceIntensity()
	// At the balance point the two terms are equal.
	e := r.EnergyPerOp(bal)
	if math.Abs(e-2*r.OpEnergy) > 1e-9*e {
		t.Fatalf("balance point energy = %v, want 2x op energy", e)
	}
	// The balance point sits well above the DRAM-fed intensity of typical
	// streaming kernels: the energy wall is real.
	if bal < 1 {
		t.Fatalf("balance intensity = %v ops/byte, expected > 1", bal)
	}
}

// Property: energy per op is antitone in intensity.
func TestQuickRooflineMonotone(t *testing.T) {
	r := StandardRoofline()
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw)/100 + 0.01
		b := float64(bRaw)/100 + 0.01
		if a > b {
			a, b = b, a
		}
		return r.EnergyPerOp(a) >= r.EnergyPerOp(b)-1e-18
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
