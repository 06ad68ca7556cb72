package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransposeKnown(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5, 6} // 2x3
	dst := make([]float32, 6)
	if err := Transpose(2, 3, src, dst); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 4, 2, 5, 3, 6} // 3x2
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestTransposeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, dims := range [][2]int{{1, 1}, {7, 13}, {32, 32}, {33, 31}, {100, 257}} {
		m, n := dims[0], dims[1]
		src := randVec(rng, m*n)
		d1 := make([]float32, m*n)
		d2 := make([]float32, m*n)
		if err := TransposeNaive(m, n, src, d1); err != nil {
			t.Fatal(err)
		}
		if err := Transpose(m, n, src, d2); err != nil {
			t.Fatal(err)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("%dx%d: element %d differs", m, n, i)
			}
		}
	}
}

func TestTransposeInPlace(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if err := TransposeInPlace(3, a); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 4, 7, 2, 5, 8, 3, 6, 9}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("a[%d] = %v, want %v", i, a[i], want[i])
		}
	}
}

func TestTransposeErrors(t *testing.T) {
	if err := Transpose[float32](-1, 2, nil, nil); err == nil {
		t.Error("negative dims must fail")
	}
	if err := Transpose(2, 2, make([]float32, 3), make([]float32, 4)); err == nil {
		t.Error("short src must fail")
	}
	if err := Transpose(2, 2, make([]float32, 4), make([]float32, 3)); err == nil {
		t.Error("short dst must fail")
	}
	if err := TransposeInPlace(3, make([]float32, 8)); err == nil {
		t.Error("short in-place buffer must fail")
	}
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(seed int64, rm, rn uint8) bool {
		m := int(rm)%40 + 1
		n := int(rn)%40 + 1
		rng := rand.New(rand.NewSource(seed))
		src := randVec(rng, m*n)
		once := make([]float32, m*n)
		twice := make([]float32, m*n)
		if err := Transpose(m, n, src, once); err != nil {
			return false
		}
		if err := Transpose(n, m, once, twice); err != nil {
			return false
		}
		for i := range src {
			if src[i] != twice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInPlaceMatchesOutOfPlace(t *testing.T) {
	f := func(seed int64, rn uint8) bool {
		n := int(rn)%30 + 1
		rng := rand.New(rand.NewSource(seed))
		a := randVec(rng, n*n)
		inPlace := append([]float32(nil), a...)
		outPlace := make([]float32, n*n)
		if err := TransposeInPlace(n, inPlace); err != nil {
			return false
		}
		if err := Transpose(n, n, a, outPlace); err != nil {
			return false
		}
		for i := range inPlace {
			if inPlace[i] != outPlace[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
