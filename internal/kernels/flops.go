package kernels

import (
	"math"

	"mealib/internal/units"
)

// Flop and byte-traffic counts for each accelerated operation, used by the
// performance models. Traffic counts assume cold caches — every operand is
// moved once to/from DRAM — which is the regime the paper's Table 2 data
// sets (0.5–1 GB) put all platforms in.

// SaxpyFlops returns flops for y += a*x of length n (1 mul + 1 add each).
func SaxpyFlops(n int) units.Flops { return units.Flops(2 * n) }

// SaxpyBytes returns DRAM traffic: read x, read y, write y.
func SaxpyBytes(n int) units.Bytes { return units.Bytes(3 * 4 * n) }

// SdotFlops returns flops for a length-n dot product.
func SdotFlops(n int) units.Flops { return units.Flops(2 * n) }

// SdotBytes returns DRAM traffic: read x and y.
func SdotBytes(n int) units.Bytes { return units.Bytes(2 * 4 * n) }

// SgemvFlops returns flops for an m x n GEMV.
func SgemvFlops(m, n int) units.Flops { return units.Flops(2 * m * n) }

// SgemvBytes returns DRAM traffic: the matrix dominates; x is reused from
// on-chip storage and y is negligible.
func SgemvBytes(m, n int) units.Bytes { return units.Bytes(4 * (m*n + n + 2*m)) }

// SpmvFlops returns flops for a CSR SpMV with nnz non-zeros.
func SpmvFlops(nnz int) units.Flops { return units.Flops(2 * nnz) }

// SpmvBytes returns DRAM traffic: values + column indices + x gathers +
// row pointers + y writes.
func SpmvBytes(rows, nnz int) units.Bytes {
	return units.Bytes(4*nnz /*values*/ + 4*nnz /*colIdx*/ + 4*nnz /*x gathers*/ + 4*(rows+1) + 4*rows)
}

// FFTFlops returns flops for a complex length-n transform (5 n log2 n, the
// standard radix-2 count the paper's GFLOPS figures use).
func FFTFlops(n int) units.Flops {
	if n <= 1 {
		return 0
	}
	return units.Flops(5 * float64(n) * math.Log2(float64(n)))
}

// FFTBytes returns DRAM traffic for an out-of-core n-point complex
// transform processed in p passes over the data (p=1 when the working set
// fits on chip).
func FFTBytes(n int, passes int) units.Bytes {
	if passes < 1 {
		passes = 1
	}
	return units.Bytes(2 * 8 * n * passes) // read+write, complex64
}

// ResampleFlops returns flops for linear interpolation to m outputs
// (1 sub, 1 mul, 1 add per output plus index arithmetic ≈ 4).
func ResampleFlops(m int) units.Flops { return units.Flops(4 * m) }

// ResampleBytes returns DRAM traffic: read n source, write m outputs.
func ResampleBytes(n, m int) units.Bytes { return units.Bytes(4 * (n + m)) }

// TransposeBytes returns DRAM traffic for an m x n transpose (read + write).
// RESHP has no flops; the paper reports it in GB/s.
func TransposeBytes(m, n int) units.Bytes { return units.Bytes(2 * 4 * m * n) }

// CdotcFlops returns flops for a conjugated complex dot product
// (8 real flops per element).
func CdotcFlops(n int) units.Flops { return units.Flops(8 * n) }

// CherkFlops returns flops for an n x n rank-k Hermitian update
// (~4*n^2*k complex MACs over the triangle = 4 n^2 k real flops).
func CherkFlops(n, k int) units.Flops { return units.Flops(4 * float64(n) * float64(n) * float64(k)) }

// CtrsmFlops returns flops for a left-side n x n triangular solve with m
// right-hand sides (~4*n^2*m real flops).
func CtrsmFlops(n, m int) units.Flops { return units.Flops(4 * float64(n) * float64(n) * float64(m)) }
