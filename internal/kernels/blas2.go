package kernels

import "fmt"

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
	parallelRanges(m, sgemvBody{alpha, beta, a, lda, x[:n], y})
	return nil
}

// sgemvBody is Sgemv's range body, over rows.
type sgemvBody struct {
	alpha, beta float32
	a           []float32
	lda         int
	xs, y       []float32
}

func (b sgemvBody) span(lo, hi int) int {
	xs, n := b.xs, len(b.xs)
	for i := lo; i < hi; i++ {
		row := b.a[i*b.lda : i*b.lda+n]
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
		b.y[i] = b.alpha*float32(s0+s1+s2+s3) + b.beta*b.y[i]
	}
	return hi
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
