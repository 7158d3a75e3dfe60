package workload

import (
	"repro/internal/stats"
)

// Request is one unit of datacenter demand.
type Request struct {
	// Arrival is the arrival time in seconds from trace start.
	Arrival float64
	// Service is the intrinsic service demand in seconds on an unloaded
	// server.
	Service float64
	// Key is the (Zipf-popular) data item the request touches; 0 if keyed
	// access is not modelled.
	Key int
}

// RequestTrace is a time-ordered sequence of requests.
type RequestTrace []Request

// PoissonTrace generates n requests with exponential interarrivals at the
// given rate (req/s) and the given service-time distribution.
func PoissonTrace(n int, rate float64, service stats.Dist, r *stats.RNG) RequestTrace {
	out := make(RequestTrace, n)
	t := 0.0
	inter := stats.Exponential{Rate: rate}
	for i := 0; i < n; i++ {
		t += inter.Sample(r)
		s := service.Sample(r)
		if s < 0 {
			s = 0
		}
		out[i] = Request{Arrival: t, Service: s}
	}
	return out
}

// ZipfTrace generates a Poisson trace whose requests touch keys drawn from
// a Zipf popularity distribution over nKeys items.
func ZipfTrace(n int, rate float64, service stats.Dist, nKeys int, skew float64, r *stats.RNG) RequestTrace {
	trace := PoissonTrace(n, rate, service, r)
	z := stats.NewZipf(nKeys, skew)
	for i := range trace {
		trace[i].Key = z.Rank(r)
	}
	return trace
}
