package kernels

import "fmt"

// Layout selects the storage order of dense matrices (CBLAS convention).
type Layout int

// Storage orders.
const (
	RowMajor Layout = iota
	ColMajor
)

// SgemvNaive computes y = alpha*A*x + beta*y for an m x n row-major matrix A
// stored with leading dimension lda.
func SgemvNaive(m, n int, alpha float32, a []float32, lda int, x []float32, beta float32, y []float32) error {
	if err := checkMat("sgemv", m, n, a, lda); err != nil {
		return err
	}
	if len(x) < n {
		return fmt.Errorf("kernels: sgemv: x length %d < n=%d", len(x), n)
	}
	if len(y) < m {
		return fmt.Errorf("kernels: sgemv: y length %d < m=%d", len(y), m)
	}
	for i := 0; i < m; i++ {
		var sum float32
		row := a[i*lda:]
		for j := 0; j < n; j++ {
			sum += row[j] * x[j]
		}
		y[i] = alpha*sum + beta*y[i]
	}
	return nil
}

// Sgemv is the optimized row-major GEMV: float64 accumulation, 4-way
// unrolling and row-parallel execution.
func Sgemv(m, n int, alpha float32, a []float32, lda int, x []float32, beta float32, y []float32) error {
	if err := checkMat("sgemv", m, n, a, lda); err != nil {
		return err
	}
	if len(x) < n {
		return fmt.Errorf("kernels: sgemv: x length %d < n=%d", len(x), n)
	}
	if len(y) < m {
		return fmt.Errorf("kernels: sgemv: y length %d < m=%d", len(y), m)
	}
	xs := x[:n]
	parallelRanges(m, func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			row := a[i*lda : i*lda+n]
			var s0, s1, s2, s3 float64
			j := 0
			for ; j+4 <= n; j += 4 {
				s0 += float64(row[j]) * float64(xs[j])
				s1 += float64(row[j+1]) * float64(xs[j+1])
				s2 += float64(row[j+2]) * float64(xs[j+2])
				s3 += float64(row[j+3]) * float64(xs[j+3])
			}
			for ; j < n; j++ {
				s0 += float64(row[j]) * float64(xs[j])
			}
			y[i] = alpha*float32(s0+s1+s2+s3) + beta*y[i]
		}
		return hi
	})
	return nil
}

// checkMat validates a dense row-major matrix argument.
func checkMat(op string, m, n int, a []float32, lda int) error {
	if m < 0 || n < 0 {
		return fmt.Errorf("kernels: %s: negative dimensions %dx%d", op, m, n)
	}
	if lda < n {
		return fmt.Errorf("kernels: %s: lda %d < n %d", op, lda, n)
	}
	if m == 0 || n == 0 {
		return nil
	}
	need := (m-1)*lda + n
	if len(a) < need {
		return fmt.Errorf("kernels: %s: matrix length %d < required %d", op, len(a), need)
	}
	return nil
}
