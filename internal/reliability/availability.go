package reliability

import (
	"math"
)

// ParallelAvailability returns the availability of n redundant components
// of individual availability a where one suffices (1-of-n).
func ParallelAvailability(a float64, n int) float64 {
	return 1 - math.Pow(1-a, float64(n))
}

// KofNAvailability returns the probability that at least k of n independent
// components of availability a are up.
func KofNAvailability(a float64, k, n int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	total := 0.0
	for i := k; i <= n; i++ {
		total += binom(n, i) * math.Pow(a, float64(i)) * math.Pow(1-a, float64(n-i))
	}
	return total
}

func binom(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(lg - lk - lnk)
}

// DowntimeSecondsPerYear converts availability to annual downtime.
func DowntimeSecondsPerYear(a float64) float64 {
	return (1 - a) * 365.25 * 86400
}

// Nines returns the "number of nines" of an availability (e.g. 0.99999 →
// 5.0).
func Nines(a float64) float64 {
	if a >= 1 {
		return math.Inf(1)
	}
	return -math.Log10(1 - a)
}

// ReplicasForTarget returns the minimum replica count n such that 1-of-n
// availability reaches the target, and the resulting availability. Returns
// n = 0 when a single component already suffices.
func ReplicasForTarget(single, target float64) (n int, achieved float64) {
	if single <= 0 || single >= 1 {
		panic("reliability: single-component availability must be in (0,1)")
	}
	for n = 1; n <= 1000; n++ {
		achieved = ParallelAvailability(single, n)
		if achieved >= target {
			return n, achieved
		}
	}
	return 1000, achieved
}

// CostOfNines returns total system cost to hit the availability target with
// replicas of the given unit cost, reproducing the paper's point that five
// nines "can cost millions" when built from highly-available units but
// becomes affordable with cheap redundant ones.
func CostOfNines(single, target, unitCost float64) float64 {
	n, _ := ReplicasForTarget(single, target)
	return float64(n) * unitCost
}
