package kernels

import (
	"fmt"
	"math"
)

// CdotcNaive computes the conjugated inner product sum(conj(x[i])*y[i])
// (cblas_cdotc_sub semantics) with BLAS increments.
func CdotcNaive(n int, x []complex64, incX int, y []complex64, incY int) (complex64, error) {
	if err := checkCVec("cdotc", n, x, incX); err != nil {
		return 0, err
	}
	if err := checkCVec("cdotc", n, y, incY); err != nil {
		return 0, err
	}
	var sum complex64
	ix, iy := startIndex(n, incX), startIndex(n, incY)
	for i := 0; i < n; i++ {
		xv := x[ix]
		sum += complex(real(xv), -imag(xv)) * y[iy]
		ix += incX
		iy += incY
	}
	return sum, nil
}

// Cdotc is the optimized variant with complex128 accumulation and
// parallelism on unit strides.
func Cdotc(n int, x []complex64, incX int, y []complex64, incY int) (complex64, error) {
	if incX != 1 || incY != 1 {
		return CdotcNaive(n, x, incX, y, incY)
	}
	if err := checkCVec("cdotc", n, x, 1); err != nil {
		return 0, err
	}
	if err := checkCVec("cdotc", n, y, 1); err != nil {
		return 0, err
	}
	xs, ys := x[:n], y[:n]
	sum := parallelReduce(n, func(lo, hi int) complex128 {
		var s complex128
		for i := lo; i < hi; i++ {
			xv := complex128(xs[i])
			s += complex(real(xv), -imag(xv)) * complex128(ys[i])
		}
		return s
	})
	return complex64(sum), nil
}

// Caxpy computes y[i] += alpha*x[i] for complex vectors.
func Caxpy(n int, alpha complex64, x []complex64, incX int, y []complex64, incY int) error {
	if err := checkCVec("caxpy", n, x, incX); err != nil {
		return err
	}
	if err := checkCVec("caxpy", n, y, incY); err != nil {
		return err
	}
	if incX == 1 && incY == 1 {
		xs, ys := x[:n], y[:n]
		parallelRanges(n, func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				ys[i] += alpha * xs[i]
			}
			return hi
		})
		return nil
	}
	ix, iy := startIndex(n, incX), startIndex(n, incY)
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
	return nil
}

// Cherk performs the Hermitian rank-k update C = alpha*A*A^H + beta*C for an
// n x n row-major C and n x k row-major A, updating the upper triangle
// (cblas_cherk with CblasUpper, CblasNoTrans; alpha and beta are real per
// the BLAS interface). The strictly-lower triangle is mirrored so C is a
// full Hermitian matrix on return, which is what the STAP solver consumes.
func Cherk(n, k int, alpha float32, a []complex64, lda int, beta float32, c []complex64, ldc int) error {
	if n < 0 || k < 0 {
		return fmt.Errorf("kernels: cherk: negative dimensions n=%d k=%d", n, k)
	}
	if lda < k {
		return fmt.Errorf("kernels: cherk: lda %d < k %d", lda, k)
	}
	if ldc < n {
		return fmt.Errorf("kernels: cherk: ldc %d < n %d", ldc, n)
	}
	if n > 0 && len(a) < (n-1)*lda+k {
		return fmt.Errorf("kernels: cherk: A length %d too short", len(a))
	}
	if n > 0 && len(c) < (n-1)*ldc+n {
		return fmt.Errorf("kernels: cherk: C length %d too short", len(c))
	}
	parallelRanges(n, func(lo, hi int) int {
		for i := lo; i < hi; i++ {
			ai := a[i*lda : i*lda+k]
			for j := i; j < n; j++ {
				aj := a[j*lda : j*lda+k]
				var sum complex128
				for p := 0; p < k; p++ {
					av := complex128(ai[p])
					bv := complex128(aj[p])
					sum += av * complex(real(bv), -imag(bv))
				}
				v := complex64(complex(float64(alpha), 0)*sum) + complex(beta, 0)*c[i*ldc+j]
				if i == j {
					// Diagonal of a Hermitian matrix is real.
					v = complex(real(v), 0)
				}
				c[i*ldc+j] = v
			}
		}
		return hi
	})
	// Mirror to the lower triangle.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			u := c[j*ldc+i]
			c[i*ldc+j] = complex(real(u), -imag(u))
		}
	}
	return nil
}

// Uplo selects which triangle of a triangular matrix is stored.
type Uplo int

// Triangle selectors.
const (
	Lower Uplo = iota
	Upper
)

// TransA selects op(A) for Ctrsm.
type TransA int

// Transpose selectors.
const (
	NoTrans TransA = iota
	ConjTrans
)

// Ctrsm solves op(A)*X = alpha*B for X, overwriting B, with A an n x n
// row-major triangular matrix and B an n x m row-major right-hand-side block
// (cblas_ctrsm with CblasLeft, non-unit diagonal). Lower/NoTrans and
// Upper/ConjTrans cover the forward and backward substitutions of the STAP
// Cholesky solve.
func Ctrsm(uplo Uplo, trans TransA, n, m int, alpha complex64, a []complex64, lda int, b []complex64, ldb int) error {
	if n < 0 || m < 0 {
		return fmt.Errorf("kernels: ctrsm: negative dimensions n=%d m=%d", n, m)
	}
	if lda < n {
		return fmt.Errorf("kernels: ctrsm: lda %d < n %d", lda, n)
	}
	if ldb < m {
		return fmt.Errorf("kernels: ctrsm: ldb %d < m %d", ldb, m)
	}
	if n > 0 && len(a) < (n-1)*lda+n {
		return fmt.Errorf("kernels: ctrsm: A length %d too short", len(a))
	}
	if n > 0 && m > 0 && len(b) < (n-1)*ldb+m {
		return fmt.Errorf("kernels: ctrsm: B length %d too short", len(b))
	}
	if alpha != 1 {
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b[i*ldb+j] *= alpha
			}
		}
	}
	at := func(i, j int) complex64 {
		v := a[i*lda+j]
		if trans == ConjTrans {
			v = a[j*lda+i]
			v = complex(real(v), -imag(v))
		}
		return v
	}
	// Effective triangle after the optional conjugate transpose.
	effLower := (uplo == Lower) == (trans == NoTrans)
	if effLower {
		for i := 0; i < n; i++ {
			diag := at(i, i)
			if diag == 0 {
				return fmt.Errorf("kernels: ctrsm: singular triangular matrix (zero diagonal at %d)", i)
			}
			for j := 0; j < m; j++ {
				sum := b[i*ldb+j]
				for p := 0; p < i; p++ {
					sum -= at(i, p) * b[p*ldb+j]
				}
				b[i*ldb+j] = sum / diag
			}
		}
		return nil
	}
	for i := n - 1; i >= 0; i-- {
		diag := at(i, i)
		if diag == 0 {
			return fmt.Errorf("kernels: ctrsm: singular triangular matrix (zero diagonal at %d)", i)
		}
		for j := 0; j < m; j++ {
			sum := b[i*ldb+j]
			for p := i + 1; p < n; p++ {
				sum -= at(i, p) * b[p*ldb+j]
			}
			b[i*ldb+j] = sum / diag
		}
	}
	return nil
}

// Cpotrf computes the Cholesky factorisation A = L*L^H of a Hermitian
// positive-definite row-major n x n matrix in place (lower triangle holds L;
// the strictly-upper triangle is zeroed). STAP uses it to factor the
// covariance matrix produced by Cherk before the Ctrsm solves.
func Cpotrf(n int, a []complex64, lda int) error {
	if n < 0 {
		return fmt.Errorf("kernels: cpotrf: negative size %d", n)
	}
	if lda < n {
		return fmt.Errorf("kernels: cpotrf: lda %d < n %d", lda, n)
	}
	if n > 0 && len(a) < (n-1)*lda+n {
		return fmt.Errorf("kernels: cpotrf: A length %d too short", len(a))
	}
	for j := 0; j < n; j++ {
		var d float64
		ajj := complex128(a[j*lda+j])
		d = real(ajj)
		for p := 0; p < j; p++ {
			v := complex128(a[j*lda+p])
			d -= real(v)*real(v) + imag(v)*imag(v)
		}
		if d <= 0 {
			return fmt.Errorf("kernels: cpotrf: matrix not positive definite at column %d", j)
		}
		ljj := float32(math.Sqrt(d))
		a[j*lda+j] = complex(ljj, 0)
		for i := j + 1; i < n; i++ {
			sum := complex128(a[i*lda+j])
			for p := 0; p < j; p++ {
				lv := complex128(a[i*lda+p])
				rv := complex128(a[j*lda+p])
				sum -= lv * complex(real(rv), -imag(rv))
			}
			a[i*lda+j] = complex64(sum / complex(float64(ljj), 0))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*lda+j] = 0
		}
	}
	return nil
}

func checkCVec(op string, n int, v []complex64, inc int) error {
	if n < 0 {
		return fmt.Errorf("kernels: %s: negative length %d", op, n)
	}
	if inc == 0 {
		return fmt.Errorf("kernels: %s: zero increment", op)
	}
	if n == 0 {
		return nil
	}
	need := (n-1)*abs(inc) + 1
	if len(v) < need {
		return fmt.Errorf("kernels: %s: vector length %d < required %d (n=%d inc=%d)", op, len(v), need, n, inc)
	}
	return nil
}
