package kernels

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestCdotcKnown(t *testing.T) {
	x := []complex64{1 + 2i, 3 - 1i}
	y := []complex64{2 + 0i, 1 + 1i}
	// conj(1+2i)*(2) + conj(3-1i)*(1+1i) = (2-4i) + (3+i)(1+i) = (2-4i)+(2+4i) = 4
	got, err := Cdotc(2, x, 1, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(complex128(got)-4) > 1e-5 {
		t.Errorf("cdotc = %v, want 4", got)
	}
}

func TestCdotcMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 9, 1000, 1 << 15} {
		x, y := randCVec(rng, n), randCVec(rng, n)
		a, err := CdotcNaive(n, x, 1, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Cdotc(n, x, 1, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(complex128(a-b)) > 1e-2 {
			t.Errorf("n=%d: naive %v vs optimized %v", n, a, b)
		}
	}
}

func TestCdotcStrided(t *testing.T) {
	x := []complex64{1, 99, 2, 99}
	y := []complex64{1, 1}
	got, err := Cdotc(2, x, 2, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Errorf("strided cdotc = %v, want 3", got)
	}
}

func TestCherkProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n, k := 12, 20
	a := randCVec(rng, n*k)
	c := make([]complex64, n*n)
	if err := Cherk(n, k, 1, a, k, 0, c, n); err != nil {
		t.Fatal(err)
	}
	// C must be Hermitian with real non-negative diagonal.
	for i := 0; i < n; i++ {
		d := c[i*n+i]
		if imag(d) != 0 || real(d) < 0 {
			t.Errorf("diagonal %d = %v, want real non-negative", i, d)
		}
		for j := 0; j < n; j++ {
			u, l := complex128(c[i*n+j]), complex128(c[j*n+i])
			if cmplx.Abs(u-cmplx.Conj(l)) > 1e-3 {
				t.Errorf("C[%d,%d]=%v not conjugate of C[%d,%d]=%v", i, j, u, j, i, l)
			}
		}
	}
	// Spot-check one entry against the definition.
	var want complex128
	for p := 0; p < k; p++ {
		want += complex128(a[2*k+p]) * cmplx.Conj(complex128(a[5*k+p]))
	}
	if cmplx.Abs(complex128(c[2*n+5])-want) > 1e-3 {
		t.Errorf("C[2,5] = %v, want %v", c[2*n+5], want)
	}
}

func TestCherkBeta(t *testing.T) {
	n, k := 3, 2
	a := make([]complex64, n*k) // zero A: C = beta*C
	c := []complex64{1, 2i, 0, -2i, 3, 0, 0, 0, 5}
	if err := Cherk(n, k, 1, a, k, 0.5, c, n); err != nil {
		t.Fatal(err)
	}
	if c[0] != 0.5 || c[4] != 1.5 || c[8] != 2.5 {
		t.Errorf("beta scaling: diag = %v %v %v", c[0], c[4], c[8])
	}
}

func TestCtrsmLowerSolve(t *testing.T) {
	// A = [2 0; 1 4] lower; solve A X = B with B = A*[1;2] = [2;9].
	a := []complex64{2, 0, 1, 4}
	b := []complex64{2, 9}
	if err := Ctrsm(Lower, NoTrans, 2, 1, 1, a, 2, b, 1); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(complex128(b[0])-1) > 1e-5 || cmplx.Abs(complex128(b[1])-2) > 1e-5 {
		t.Errorf("solution = %v, want [1 2]", b)
	}
}

func TestCtrsmConjTransSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n, m := 8, 3
	// Build a well-conditioned lower-triangular A.
	a := make([]complex64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			a[i*n+j] = complex(float32(rng.NormFloat64())*0.3, float32(rng.NormFloat64())*0.3)
		}
		a[i*n+i] = complex(2+float32(rng.Float64()), 0)
	}
	x := randCVec(rng, n*m)
	// B = A^H * X.
	b := make([]complex64, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var sum complex128
			for p := 0; p < n; p++ {
				sum += cmplx.Conj(complex128(a[p*n+i])) * complex128(x[p*m+j])
			}
			b[i*m+j] = complex64(sum)
		}
	}
	// Solving A^H X = B with Lower/ConjTrans must recover X.
	if err := Ctrsm(Lower, ConjTrans, n, m, 1, a, n, b, m); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(b, x); d > 1e-3 {
		t.Errorf("conjtrans solve diff %g", d)
	}
}

func TestCtrsmAlphaAndErrors(t *testing.T) {
	a := []complex64{2, 0, 0, 2}
	b := []complex64{4, 8}
	if err := Ctrsm(Lower, NoTrans, 2, 1, 0.5, a, 2, b, 1); err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[1] != 2 {
		t.Errorf("alpha=0.5: %v, want [1 2]", b)
	}
	sing := []complex64{0, 0, 0, 1}
	if err := Ctrsm(Lower, NoTrans, 2, 1, 1, sing, 2, []complex64{1, 1}, 1); err == nil {
		t.Error("singular matrix must fail")
	}
	if err := Ctrsm(Lower, NoTrans, 2, 1, 1, a, 1, b, 1); err == nil {
		t.Error("lda < n must fail")
	}
}

func TestCpotrfRecoversFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n, k := 10, 40
	// A = G*G^H + n*I is positive definite.
	g := randCVec(rng, n*k)
	a := make([]complex64, n*n)
	if err := Cherk(n, k, 1, g, k, 0, a, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += complex(float32(n), 0)
	}
	orig := append([]complex64(nil), a...)
	if err := Cpotrf(n, a, n); err != nil {
		t.Fatal(err)
	}
	// L*L^H must reconstruct the original matrix.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sum complex128
			for p := 0; p <= min(i, j); p++ {
				sum += complex128(a[i*n+p]) * cmplx.Conj(complex128(a[j*n+p]))
			}
			if cmplx.Abs(sum-complex128(orig[i*n+j])) > 1e-2 {
				t.Fatalf("LL^H[%d,%d] = %v, want %v", i, j, sum, orig[i*n+j])
			}
		}
	}
}

func TestCpotrfNotPD(t *testing.T) {
	a := []complex64{-1, 0, 0, 1}
	if err := Cpotrf(2, a, 2); err == nil {
		t.Error("negative-definite matrix must fail")
	}
}

func TestCholeskySolvePipeline(t *testing.T) {
	// The full STAP solver step: factor A, then two Ctrsm solves recover x
	// from b = A*x.
	rng := rand.New(rand.NewSource(18))
	n := 6
	g := randCVec(rng, n*n*4)
	a := make([]complex64, n*n)
	if err := Cherk(n, n*4, 1, g, n*4, 0, a, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a[i*n+i] += complex(float32(n), 0)
	}
	x := randCVec(rng, n)
	b := make([]complex64, n)
	for i := 0; i < n; i++ {
		var sum complex128
		for j := 0; j < n; j++ {
			sum += complex128(a[i*n+j]) * complex128(x[j])
		}
		b[i] = complex64(sum)
	}
	if err := Cpotrf(n, a, n); err != nil {
		t.Fatal(err)
	}
	if err := Ctrsm(Lower, NoTrans, n, 1, 1, a, n, b, 1); err != nil {
		t.Fatal(err)
	}
	if err := Ctrsm(Lower, ConjTrans, n, 1, 1, a, n, b, 1); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(b, x); d > 1e-2 {
		t.Errorf("cholesky solve diff %g", d)
	}
}
