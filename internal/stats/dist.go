package stats

import (
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution that can be sampled
// and, where tractable, queried for moments and quantiles.
type Dist interface {
	// Sample draws one variate using r.
	Sample(r *RNG) float64
	// Mean returns the distribution mean (NaN if undefined).
	Mean() float64
	// Quantile returns the value at cumulative probability p in (0,1).
	Quantile(p float64) float64
	// CDF returns P(X <= x), the inverse of Quantile.
	CDF(x float64) float64
	// String describes the distribution and its parameters.
	String() string
}

// Constant is a degenerate distribution that always yields V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return c.V }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.V }

// Quantile implements Dist.
func (c Constant) Quantile(float64) float64 { return c.V }

// CDF implements Dist.
func (c Constant) CDF(x float64) float64 {
	if x < c.V {
		return 0
	}
	return 1
}

func (c Constant) String() string { return fmt.Sprintf("Constant(%g)", c.V) }

// Exponential is the exponential distribution with the given Rate (λ).
type Exponential struct{ Rate float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Quantile implements Dist.
func (e Exponential) Quantile(p float64) float64 { return -math.Log(1-p) / e.Rate }

// CDF implements Dist.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Rate * x)
}

func (e Exponential) String() string { return fmt.Sprintf("Exp(rate=%g)", e.Rate) }

// LogNormal is the log-normal distribution: exp(Normal(Mu, Sigma²)).
// Service-time tails in warehouse systems are commonly log-normal-ish,
// which is why E3 (tail at scale) uses it as its default leaf distribution.
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *RNG) float64 { return math.Exp(l.Mu + l.Sigma*r.NormFloat64()) }

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Quantile implements Dist.
func (l LogNormal) Quantile(p float64) float64 { return math.Exp(l.Mu + l.Sigma*normQuantile(p)) }

// CDF implements Dist.
func (l LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return normCDF((math.Log(x) - l.Mu) / l.Sigma)
}

func (l LogNormal) String() string { return fmt.Sprintf("LogNormal(mu=%g,sigma=%g)", l.Mu, l.Sigma) }

// Pareto is the Pareto (power-law) distribution with scale Xm and shape
// Alpha. Heavy tails (Alpha near 1-2) model straggler-prone services.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(r *RNG) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return p.Xm / math.Pow(u, 1/p.Alpha)
		}
	}
}

// Mean implements Dist. Undefined (returns +Inf) for Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Quantile implements Dist.
func (p Pareto) Quantile(q float64) float64 { return p.Xm / math.Pow(1-q, 1/p.Alpha) }

// CDF implements Dist.
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

func (p Pareto) String() string { return fmt.Sprintf("Pareto(xm=%g,alpha=%g)", p.Xm, p.Alpha) }

// Shifted wraps a distribution and adds a constant offset, modelling a
// deterministic minimum (e.g. network RTT floor under a stochastic service
// time).
type Shifted struct {
	D      Dist
	Offset float64
}

// Sample implements Dist.
func (s Shifted) Sample(r *RNG) float64 { return s.Offset + s.D.Sample(r) }

// Mean implements Dist.
func (s Shifted) Mean() float64 { return s.Offset + s.D.Mean() }

// Quantile implements Dist.
func (s Shifted) Quantile(p float64) float64 { return s.Offset + s.D.Quantile(p) }

// CDF implements Dist.
func (s Shifted) CDF(x float64) float64 { return s.D.CDF(x - s.Offset) }

func (s Shifted) String() string { return fmt.Sprintf("%v+%g", s.D, s.Offset) }

// Bimodal mixes two distributions: with probability PHeavy the sample comes
// from Heavy, otherwise from Base. This is the classic "mostly fast, rarely
// slow" straggler model for request latencies.
type Bimodal struct {
	Base   Dist
	Heavy  Dist
	PHeavy float64
}

// Sample implements Dist.
func (b Bimodal) Sample(r *RNG) float64 {
	if r.Bool(b.PHeavy) {
		return b.Heavy.Sample(r)
	}
	return b.Base.Sample(r)
}

// Mean implements Dist.
func (b Bimodal) Mean() float64 {
	return (1-b.PHeavy)*b.Base.Mean() + b.PHeavy*b.Heavy.Mean()
}

// Quantile implements Dist: one bisection over the mixture's closed-form
// CDF, bracketed by the components' 0.999999 quantiles.
func (b Bimodal) Quantile(p float64) float64 {
	lo, hi := 0.0, math.Max(b.Base.Quantile(0.999999), b.Heavy.Quantile(0.999999))
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if b.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// CDF implements Dist.
func (b Bimodal) CDF(x float64) float64 {
	return (1-b.PHeavy)*b.Base.CDF(x) + b.PHeavy*b.Heavy.CDF(x)
}

func (b Bimodal) String() string {
	return fmt.Sprintf("Bimodal(%v | %v @%g)", b.Base, b.Heavy, b.PHeavy)
}

// Zipf samples ranks in [1, N] with probability proportional to 1/rank^S.
// It precomputes the CDF for exact inverse-transform sampling, making draws
// O(log N).
type Zipf struct {
	cdf []float64
	n   int
}

// NewZipf builds a Zipf sampler over n items with exponent s > 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs n > 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), s)
		cdf[i-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, n: n}
}

// Rank draws a rank in [1, N].
func (z *Zipf) Rank(r *RNG) int {
	u := r.Float64()
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Prob returns the probability mass of the given rank in [1, N].
func (z *Zipf) Prob(rank int) float64 {
	if rank < 1 || rank > z.n {
		return 0
	}
	if rank == 1 {
		return z.cdf[0]
	}
	return z.cdf[rank-1] - z.cdf[rank-2]
}

// normCDF is the standard normal CDF.
func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// normQuantile is the Acklam approximation to the standard normal inverse
// CDF. Panics outside (0,1).
func normQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: normQuantile p=%g out of (0,1)", p))
	}
	// Coefficients for the rational approximations.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
