package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randVec(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSaxpyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1000, 1 << 15} {
		x := randVec(rng, n)
		y1 := randVec(rng, n)
		y2 := append([]float32(nil), y1...)
		if err := SaxpyNaive(n, 2.5, x, 1, y1, 1); err != nil {
			t.Fatal(err)
		}
		if err := Saxpy(n, 2.5, x, 1, y2, 1); err != nil {
			t.Fatal(err)
		}
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("n=%d: element %d differs: %v vs %v", n, i, y1[i], y2[i])
			}
		}
	}
}

func TestSaxpyStrides(t *testing.T) {
	x := []float32{1, 99, 2, 99, 3}
	y := []float32{10, 20, 30}
	if err := Saxpy(3, 2, x, 2, y, 1); err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSaxpyNegativeStride(t *testing.T) {
	// BLAS semantics: negative incX walks x backwards.
	x := []float32{1, 2, 3}
	y := []float32{0, 0, 0}
	if err := SaxpyNaive(3, 1, x, -1, y, 1); err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 2, 1}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSaxpyErrors(t *testing.T) {
	if err := Saxpy(-1, 1, nil, 1, nil, 1); err == nil {
		t.Error("negative n must fail")
	}
	if err := Saxpy(4, 1, make([]float32, 3), 1, make([]float32, 4), 1); err == nil {
		t.Error("short x must fail")
	}
	if err := SaxpyNaive(4, 1, make([]float32, 4), 0, make([]float32, 4), 1); err == nil {
		t.Error("zero increment must fail")
	}
	if err := Saxpy(0, 1, nil, 1, nil, 1); err != nil {
		t.Errorf("n=0 must succeed: %v", err)
	}
}

func TestSdotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 5, 1023, 1 << 15} {
		x, y := randVec(rng, n), randVec(rng, n)
		a, err := SdotNaive(n, x, 1, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Sdot(n, x, 1, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(float64(a), float64(b), 1e-4) {
			t.Errorf("n=%d: naive %v vs optimized %v", n, a, b)
		}
	}
}

func TestSdotKnown(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	got, err := Sdot(3, x, 1, y, 1)
	if err != nil || got != 32 {
		t.Errorf("dot = %v, %v; want 32", got, err)
	}
}

func TestPropertySaxpyLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64, raw uint8) bool {
		n := int(raw)%100 + 1
		r := rand.New(rand.NewSource(seed))
		x := randVec(r, n)
		y := randVec(r, n)
		alpha, beta := float32(r.NormFloat64()), float32(r.NormFloat64())
		// (alpha+beta)*x + y  ==  alpha*x + (beta*x + y)
		y1 := append([]float32(nil), y...)
		if err := Saxpy(n, alpha+beta, x, 1, y1, 1); err != nil {
			return false
		}
		y2 := append([]float32(nil), y...)
		if err := Saxpy(n, beta, x, 1, y2, 1); err != nil {
			return false
		}
		if err := Saxpy(n, alpha, x, 1, y2, 1); err != nil {
			return false
		}
		for i := range y1 {
			if !almostEqual(float64(y1[i]), float64(y2[i]), 1e-4) {
				return false
			}
		}
		return true
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDotSymmetric(t *testing.T) {
	f := func(seed int64, raw uint8) bool {
		n := int(raw)%200 + 1
		r := rand.New(rand.NewSource(seed))
		x, y := randVec(r, n), randVec(r, n)
		a, err1 := Sdot(n, x, 1, y, 1)
		b, err2 := Sdot(n, y, 1, x, 1)
		return err1 == nil && err2 == nil && almostEqual(float64(a), float64(b), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
