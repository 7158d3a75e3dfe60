package reliability

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestEncodeDecodeClean(t *testing.T) {
	for _, data := range []uint64{0, 1, 0xffffffffffffffff, 0xdeadbeefcafebabe} {
		cw := Encode(data)
		got, status := Decode(cw)
		if status != OK || got != data {
			t.Fatalf("clean decode of %#x: got %#x status %v", data, got, status)
		}
	}
}

func TestSingleBitCorrection(t *testing.T) {
	data := uint64(0x123456789abcdef0)
	for idx := 0; idx < 72; idx++ {
		cw := Encode(data)
		cw.FlipBit(idx)
		got, status := Decode(cw)
		if status != Corrected {
			t.Fatalf("flip at %d: status %v, want corrected", idx, status)
		}
		if got != data {
			t.Fatalf("flip at %d: data %#x, want %#x", idx, got, data)
		}
	}
}

func TestDoubleBitDetection(t *testing.T) {
	data := uint64(0x0f0f0f0f0f0f0f0f)
	for i := 0; i < 72; i++ {
		for j := i + 1; j < 72; j += 7 { // sample pairs for speed
			cw := Encode(data)
			cw.FlipBit(i)
			cw.FlipBit(j)
			_, status := Decode(cw)
			if status != Uncorrectable {
				t.Fatalf("flips at %d,%d: status %v, want uncorrectable", i, j, status)
			}
		}
	}
}

// Property: SECDED corrects every single flip and flags every double flip,
// for random data and random positions.
func TestQuickSECDEDContract(t *testing.T) {
	f := func(data uint64, aRaw, bRaw uint8) bool {
		a := int(aRaw) % 72
		b := int(bRaw) % 72
		cw := Encode(data)
		cw.FlipBit(a)
		if b == a {
			got, st := Decode(cw)
			return st == Corrected && got == data
		}
		cw.FlipBit(b)
		_, st := Decode(cw)
		return st == Uncorrectable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlipBitTwiceRestores(t *testing.T) {
	cw := Encode(42)
	orig := cw
	cw.FlipBit(17)
	cw.FlipBit(17)
	if hammingDistance(cw, orig) != 0 {
		t.Fatal("double flip should restore codeword")
	}
}

// hammingDistance counts differing bits between two codewords.
func hammingDistance(a, b Codeword) int {
	return bits.OnesCount64(a.lo^b.lo) + bits.OnesCount8(a.hi^b.hi)
}

func TestHammingDistance(t *testing.T) {
	a := Encode(0)
	b := a
	b.FlipBit(3)
	b.FlipBit(70)
	if d := hammingDistance(a, b); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
}

func TestCodewordMinDistance(t *testing.T) {
	// SECDED code distance is 4: any two distinct data words' codewords
	// differ in >= 4 bits. Spot-check pairs.
	r := stats.NewRNG(17)
	for i := 0; i < 200; i++ {
		d1, d2 := r.Uint64(), r.Uint64()
		if d1 == d2 {
			continue
		}
		if d := hammingDistance(Encode(d1), Encode(d2)); d < 4 {
			t.Fatalf("distance %d < 4 between %#x and %#x", d, d1, d2)
		}
	}
}

func TestInjectionCampaign(t *testing.T) {
	r := stats.NewRNG(23)
	res := InjectAndDecode(20000, 0.5, 0.3, r)
	if res.SilentWrong != 0 {
		t.Fatalf("silent wrong decodes: %d", res.SilentWrong)
	}
	if res.SingleFlips == 0 || res.DoubleFlips == 0 {
		t.Fatal("campaign injected nothing")
	}
	if res.CorrectedOK != res.SingleFlips {
		t.Fatalf("corrected %d of %d singles", res.CorrectedOK, res.SingleFlips)
	}
	if res.DetectedDouble != res.DoubleFlips {
		t.Fatalf("detected %d of %d doubles", res.DetectedDouble, res.DoubleFlips)
	}
}

func TestSoftErrorModelScales(t *testing.T) {
	small := SoftErrorModel{FITPerMb: 1000, Megabits: 1}
	big := SoftErrorModel{FITPerMb: 1000, Megabits: 1000}
	if big.FlipsPerSecond() <= small.FlipsPerSecond() {
		t.Fatal("bigger memory should flip more")
	}
	// 1000 FIT/Mb * 1000 Mb = 1e6 FIT = 1 failure per 1000 hours.
	want := 1.0 / (1000 * 3600)
	if math.Abs(big.FlipsPerSecond()-want) > 1e-12 {
		t.Fatalf("rate = %v, want %v", big.FlipsPerSecond(), want)
	}
	if big.ExpectedFlips(3600) <= 0 {
		t.Fatal("expected flips should be positive")
	}
}

func TestUncorrectableRateScrubbing(t *testing.T) {
	lambda := 1e-6
	fast := UncorrectableRate(lambda, 60)
	slow := UncorrectableRate(lambda, 86400)
	if fast >= slow {
		t.Fatal("faster scrubbing should cut uncorrectable rate")
	}
	if fast < 0 || slow > 1 {
		t.Fatal("rates out of range")
	}
	// Small-x expansion: ~x^2/2.
	x := lambda * 60
	if math.Abs(fast-x*x/2)/(x*x/2) > 0.01 {
		t.Fatalf("small-x rate = %v, want ~%v", fast, x*x/2)
	}
}

func TestSchemesOrdering(t *testing.T) {
	schemes := StandardSchemes()
	byName := map[string]Scheme{}
	for _, s := range schemes {
		byName[s.Name] = s
	}
	// The paper's claim: invariant checking detects most errors at a
	// fraction of DMR/TMR energy.
	inv, dmr, tmr := byName["invariant-coproc"], byName["dmr"], byName["tmr"]
	base, errs := 100.0, 10.0
	if inv.EnergyPerDetectedError(base, errs) >= dmr.EnergyPerDetectedError(base, errs) {
		t.Fatal("invariant coprocessor should beat DMR on energy/detection")
	}
	if dmr.EnergyPerDetectedError(base, errs) >= tmr.EnergyPerDetectedError(base, errs)*3 {
		t.Fatal("DMR should not be 3x worse than TMR per detection")
	}
	// none detects nothing.
	if !math.IsInf(byName["none"].EnergyPerDetectedError(base, errs), 1) {
		t.Fatal("none should have infinite energy per detection")
	}
}

func TestAvailabilityBasics(t *testing.T) {
	if got := Nines(0.99999); math.Abs(got-5) > 1e-9 {
		t.Fatalf("nines(five nines) = %v", got)
	}
	// Five nines = ~5.26 minutes/year, the paper's "all but five minutes".
	dt := DowntimeSecondsPerYear(0.99999) / 60
	if dt < 4.5 || dt > 6 {
		t.Fatalf("five-nines downtime = %v min/yr, want ~5.3", dt)
	}
}

func TestParallelAvailability(t *testing.T) {
	// Two 99% machines: 99.99%.
	if got := ParallelAvailability(0.99, 2); math.Abs(got-0.9999) > 1e-12 {
		t.Fatalf("parallel = %v", got)
	}
	if ParallelAvailability(0.9, 1) != 0.9 {
		t.Fatal("n=1 should be identity")
	}
}

func TestKofN(t *testing.T) {
	// 1-of-n must match ParallelAvailability.
	for n := 1; n <= 5; n++ {
		if math.Abs(KofNAvailability(0.9, 1, n)-ParallelAvailability(0.9, n)) > 1e-9 {
			t.Fatalf("1-of-%d mismatch", n)
		}
	}
	// k > n impossible; k = 0 certain.
	if KofNAvailability(0.9, 3, 2) != 0 || KofNAvailability(0.9, 0, 2) != 1 {
		t.Fatal("k-of-n edges wrong")
	}
	// Needing all n is worse than needing one.
	if KofNAvailability(0.9, 3, 3) >= KofNAvailability(0.9, 1, 3) {
		t.Fatal("3-of-3 should be worse than 1-of-3")
	}
}

func TestReplicasForTarget(t *testing.T) {
	// Cheap 99% boxes reach five nines with 3 replicas: 1-(0.01)^3.
	n, a := ReplicasForTarget(0.99, 0.99999)
	if n != 3 {
		t.Fatalf("replicas = %d, want 3", n)
	}
	if a < 0.99999 {
		t.Fatal("achieved below target")
	}
	// Cost: cheap redundancy beats one gold-plated box — the paper's
	// "availability at the cost of a few dollars" aspiration.
	cheap := CostOfNines(0.99, 0.99999, 1000)
	gold := 1e6 // the mainframe the paper says five nines costs today
	if cheap >= gold {
		t.Fatalf("redundant-cheap cost %v should beat %v", cheap, gold)
	}
}

func TestReplicasPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad availability did not panic")
		}
	}()
	ReplicasForTarget(1.5, 0.999)
}

// Property: availability functions stay in [0,1] and are monotone in n.
func TestQuickAvailabilityBounds(t *testing.T) {
	f := func(aRaw uint8, nRaw uint8) bool {
		a := float64(aRaw%99+1) / 100
		n := int(nRaw)%10 + 1
		pa := ParallelAvailability(a, n)
		pa2 := ParallelAvailability(a, n+1)
		return pa >= 0 && pa <= 1 && pa2 >= pa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
