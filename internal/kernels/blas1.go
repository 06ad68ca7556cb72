package kernels

import "fmt"

// SaxpyNaive computes y[i] += alpha*x[i] with the textbook loop, honouring
// BLAS increments.
func SaxpyNaive(n int, alpha float32, x []float32, incX int, y []float32, incY int) error {
	if err := checkVec("saxpy", n, x, incX); err != nil {
		return err
	}
	if err := checkVec("saxpy", n, y, incY); err != nil {
		return err
	}
	ix, iy := startIndex(n, incX), startIndex(n, incY)
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
	return nil
}

// Saxpy is the optimized unit-stride fast path with 4-way unrolling and
// goroutine parallelism; non-unit strides fall back to the generic loop.
func Saxpy(n int, alpha float32, x []float32, incX int, y []float32, incY int) error {
	if incX != 1 || incY != 1 {
		return SaxpyNaive(n, alpha, x, incX, y, incY)
	}
	if err := checkVec("saxpy", n, x, 1); err != nil {
		return err
	}
	if err := checkVec("saxpy", n, y, 1); err != nil {
		return err
	}
	xs, ys := x[:n], y[:n]
	parallelRanges(n, func(lo, hi int) int {
		i := lo
		for ; i+4 <= hi; i += 4 {
			ys[i] += alpha * xs[i]
			ys[i+1] += alpha * xs[i+1]
			ys[i+2] += alpha * xs[i+2]
			ys[i+3] += alpha * xs[i+3]
		}
		for ; i < hi; i++ {
			ys[i] += alpha * xs[i]
		}
		return hi
	})
	return nil
}

// SdotNaive computes the inner product of x and y.
func SdotNaive(n int, x []float32, incX int, y []float32, incY int) (float32, error) {
	if err := checkVec("sdot", n, x, incX); err != nil {
		return 0, err
	}
	if err := checkVec("sdot", n, y, incY); err != nil {
		return 0, err
	}
	var sum float32
	ix, iy := startIndex(n, incX), startIndex(n, incY)
	for i := 0; i < n; i++ {
		sum += x[ix] * y[iy]
		ix += incX
		iy += incY
	}
	return sum, nil
}

// Sdot is the optimized dot product: float64 accumulation (like MKL's
// extended-precision path), 4 independent partial sums and goroutine
// parallelism for unit strides.
func Sdot(n int, x []float32, incX int, y []float32, incY int) (float32, error) {
	if incX != 1 || incY != 1 {
		return SdotNaive(n, x, incX, y, incY)
	}
	if err := checkVec("sdot", n, x, 1); err != nil {
		return 0, err
	}
	if err := checkVec("sdot", n, y, 1); err != nil {
		return 0, err
	}
	xs, ys := x[:n], y[:n]
	sum := parallelReduce(n, func(lo, hi int) float64 {
		var s0, s1, s2, s3 float64
		i := lo
		for ; i+4 <= hi; i += 4 {
			s0 += float64(xs[i]) * float64(ys[i])
			s1 += float64(xs[i+1]) * float64(ys[i+1])
			s2 += float64(xs[i+2]) * float64(ys[i+2])
			s3 += float64(xs[i+3]) * float64(ys[i+3])
		}
		for ; i < hi; i++ {
			s0 += float64(xs[i]) * float64(ys[i])
		}
		return s0 + s1 + s2 + s3
	})
	return float32(sum), nil
}

// Sscal scales x by alpha in place.
func Sscal(n int, alpha float32, x []float32, incX int) error {
	if err := checkVec("sscal", n, x, incX); err != nil {
		return err
	}
	if incX == 1 {
		xs := x[:n]
		parallelRanges(n, func(lo, hi int) int {
			for i := lo; i < hi; i++ {
				xs[i] *= alpha
			}
			return hi
		})
		return nil
	}
	ix := startIndex(n, incX)
	for i := 0; i < n; i++ {
		x[ix] *= alpha
		ix += incX
	}
	return nil
}

// checkVec validates a strided BLAS vector argument.
func checkVec(op string, n int, v []float32, inc int) error {
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

// startIndex returns the BLAS starting offset for a possibly negative
// increment.
func startIndex(n, inc int) int {
	if inc >= 0 {
		return 0
	}
	return -(n - 1) * inc
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
