package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// sgemvNaive is the reference Sgemv is held to: it computes y = alpha*A*x + beta*y for an m x n row-major matrix A
// stored with leading dimension lda.
func sgemvNaive(m, n int, alpha float32, a []float32, lda int, x []float32, beta float32, y []float32) error {
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

func TestSgemvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {5, 3}, {64, 64}, {127, 65}, {300, 200}} {
		m, n := dims[0], dims[1]
		a := randVec(rng, m*n)
		x := randVec(rng, n)
		y1 := randVec(rng, m)
		y2 := append([]float32(nil), y1...)
		if err := sgemvNaive(m, n, 1.5, a, n, x, 0.5, y1); err != nil {
			t.Fatal(err)
		}
		if err := Sgemv(m, n, 1.5, a, n, x, 0.5, y2); err != nil {
			t.Fatal(err)
		}
		for i := range y1 {
			if !almostEqual(float64(y1[i]), float64(y2[i]), 1e-4) {
				t.Fatalf("%dx%d: y[%d] = %v vs %v", m, n, i, y1[i], y2[i])
			}
		}
	}
}

func TestSgemvKnown(t *testing.T) {
	// [1 2; 3 4] * [1; 1] = [3; 7]
	a := []float32{1, 2, 3, 4}
	x := []float32{1, 1}
	y := []float32{100, 100}
	if err := Sgemv(2, 2, 1, a, 2, x, 0, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("y = %v, want [3 7]", y)
	}
}

func TestSgemvLeadingDimension(t *testing.T) {
	// 2x2 matrix embedded in rows of length 4.
	a := []float32{1, 2, -9, -9, 3, 4, -9, -9}
	x := []float32{1, 1}
	y := make([]float32, 2)
	if err := Sgemv(2, 2, 1, a, 4, x, 0, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("lda=4: y = %v, want [3 7]", y)
	}
}

func TestSgemvBeta(t *testing.T) {
	a := []float32{1, 0, 0, 1}
	x := []float32{5, 6}
	y := []float32{10, 20}
	if err := Sgemv(2, 2, 2, a, 2, x, 3, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 2*5+3*10 || y[1] != 2*6+3*20 {
		t.Errorf("alpha/beta: y = %v", y)
	}
}

func TestSgemvErrors(t *testing.T) {
	if err := Sgemv(2, 2, 1, make([]float32, 3), 2, make([]float32, 2), 0, make([]float32, 2)); err == nil {
		t.Error("short matrix must fail")
	}
	if err := Sgemv(2, 4, 1, make([]float32, 8), 2, make([]float32, 4), 0, make([]float32, 2)); err == nil {
		t.Error("lda < n must fail")
	}
	if err := Sgemv(2, 2, 1, make([]float32, 4), 2, make([]float32, 1), 0, make([]float32, 2)); err == nil {
		t.Error("short x must fail")
	}
	if err := Sgemv(2, 2, 1, make([]float32, 4), 2, make([]float32, 2), 0, make([]float32, 1)); err == nil {
		t.Error("short y must fail")
	}
	if err := Sgemv(0, 0, 1, nil, 0, nil, 0, nil); err != nil {
		t.Errorf("empty gemv must succeed: %v", err)
	}
}
