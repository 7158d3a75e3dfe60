// Package workload provides the synthetic workloads that drive arch21
// experiments: computational kernels with op/byte models, biometric sensor
// streams with injected anomalies, layered task DAGs for parallel runtimes,
// and stochastic request processes for datacenter simulations.
//
// The paper's Appendix A motivates three application families (personalized
// healthcare, scientific discovery, human network analytics); the generators
// here produce workloads with those families' published attributes — big
// data rates, bursty arrivals, heavy-tailed popularity — without requiring
// the proprietary traces the authors allude to.
package workload

import "fmt"

// Kernel describes a computational kernel by the resources an input of size
// n demands. Ops and Bytes define arithmetic intensity; AccelFrac feeds the
// specialization model.
type Kernel struct {
	Name string
	// Ops returns the number of arithmetic operations for problem size n.
	Ops func(n int) float64
	// Bytes returns the number of distinct memory bytes touched for size n.
	Bytes func(n int) float64
	// AccelFrac is the fraction of work a domain accelerator can absorb.
	AccelFrac float64
}

// Intensity returns the arithmetic intensity (ops per byte) at size n.
func (k Kernel) Intensity(n int) float64 {
	b := k.Bytes(n)
	if b == 0 {
		return 0
	}
	return k.Ops(n) / b
}

func (k Kernel) String() string { return fmt.Sprintf("kernel(%s)", k.Name) }

// Standard kernels used across experiments. Op/byte formulas follow the
// usual first-order models (e.g. GEMM: 2n^3 flops over 3n^2 operands).
var (
	// GEMM is dense matrix multiply of two n x n matrices.
	GEMM = Kernel{
		Name:      "gemm",
		Ops:       func(n int) float64 { f := float64(n); return 2 * f * f * f },
		Bytes:     func(n int) float64 { f := float64(n); return 3 * f * f * 8 },
		AccelFrac: 0.95,
	}
	// FFT is an n-point complex FFT.
	FFT = Kernel{
		Name:      "fft",
		Ops:       func(n int) float64 { f := float64(n); return 5 * f * log2(f) },
		Bytes:     func(n int) float64 { f := float64(n); return 16 * f },
		AccelFrac: 0.90,
	}
	// Stencil is a 2D 5-point stencil over an n x n grid (one sweep).
	Stencil = Kernel{
		Name:      "stencil",
		Ops:       func(n int) float64 { f := float64(n); return 5 * f * f },
		Bytes:     func(n int) float64 { f := float64(n); return 8 * f * f },
		AccelFrac: 0.85,
	}
	// SpMV is sparse matrix-vector multiply with ~10 nonzeros per row.
	SpMV = Kernel{
		Name:      "spmv",
		Ops:       func(n int) float64 { return 2 * 10 * float64(n) },
		Bytes:     func(n int) float64 { return (10*12 + 16) * float64(n) },
		AccelFrac: 0.60,
	}
	// Sort is comparison sort of n 8-byte keys.
	Sort = Kernel{
		Name:      "sort",
		Ops:       func(n int) float64 { f := float64(n); return f * log2(f) },
		Bytes:     func(n int) float64 { return 8 * float64(n) },
		AccelFrac: 0.40,
	}
	// Crypto is AES-class block encryption of n bytes.
	Crypto = Kernel{
		Name:      "crypto",
		Ops:       func(n int) float64 { return 20 * float64(n) },
		Bytes:     func(n int) float64 { return 2 * float64(n) },
		AccelFrac: 0.99,
	}
	// Conv is a convolutional vision layer over an n x n image (3x3 kernel,
	// 16 channels), the "focus computation where the user is looking" class.
	Conv = Kernel{
		Name:      "conv",
		Ops:       func(n int) float64 { f := float64(n); return 2 * 9 * 16 * f * f },
		Bytes:     func(n int) float64 { f := float64(n); return 4 * f * f * 2 },
		AccelFrac: 0.97,
	}
)

// Kernels lists all standard kernels.
func Kernels() []Kernel {
	return []Kernel{GEMM, FFT, Stencil, SpMV, Sort, Crypto, Conv}
}

func log2(x float64) float64 {
	if x <= 1 {
		return 1
	}
	// ln(x)/ln(2) without importing math for one call would be silly; use a
	// local import via helper below.
	return mathLog2(x)
}
