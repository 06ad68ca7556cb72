package kernels

import (
	"math"
	"math/rand"
	"testing"
)

// resampleNaive is the serial reference Resample is held to.
func resampleNaive(src []float32, dst []float32, kind InterpKind) error {
	return resample(src, dst, kind, false)
}

func TestResampleIdentity(t *testing.T) {
	src := []float32{1, 2, 3, 4, 5}
	dst := make([]float32, 5)
	if err := Resample(src, dst, InterpLinear); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Abs(float64(dst[i]-src[i])) > 1e-6 {
			t.Errorf("identity resample dst[%d] = %v, want %v", i, dst[i], src[i])
		}
	}
}

func TestResampleUpsampleLinearExact(t *testing.T) {
	// A linear ramp must be reproduced exactly by linear interpolation at
	// any output rate.
	src := make([]float32, 16)
	for i := range src {
		src[i] = float32(i) * 2
	}
	dst := make([]float32, 61)
	if err := Resample(src, dst, InterpLinear); err != nil {
		t.Fatal(err)
	}
	scale := float64(len(src)-1) / float64(len(dst)-1)
	for i := range dst {
		want := 2 * float64(i) * scale
		if math.Abs(float64(dst[i])-want) > 1e-4 {
			t.Errorf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestResampleCubicRampExact(t *testing.T) {
	// Catmull-Rom reproduces linear functions exactly as well.
	src := make([]float32, 16)
	for i := range src {
		src[i] = float32(i)
	}
	dst := make([]float32, 37)
	if err := Resample(src, dst, InterpCubic); err != nil {
		t.Fatal(err)
	}
	scale := float64(len(src)-1) / float64(len(dst)-1)
	for i := range dst {
		want := float64(i) * scale
		if math.Abs(float64(dst[i])-want) > 1e-4 {
			t.Errorf("cubic dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestResampleEndpoints(t *testing.T) {
	src := []float32{7, 1, 2, 3, 9}
	dst := make([]float32, 11)
	for _, kind := range []InterpKind{InterpLinear, InterpCubic} {
		if err := Resample(src, dst, kind); err != nil {
			t.Fatal(err)
		}
		if dst[0] != src[0] {
			t.Errorf("kind %d: first output %v, want %v", kind, dst[0], src[0])
		}
		if math.Abs(float64(dst[len(dst)-1]-src[len(src)-1])) > 1e-5 {
			t.Errorf("kind %d: last output %v, want %v", kind, dst[len(dst)-1], src[len(src)-1])
		}
	}
}

func TestResampleMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	src := randVec(rng, 1000)
	for _, kind := range []InterpKind{InterpLinear, InterpCubic} {
		d1 := make([]float32, 1<<15)
		d2 := make([]float32, 1<<15)
		if err := resampleNaive(src, d1, kind); err != nil {
			t.Fatal(err)
		}
		if err := Resample(src, d2, kind); err != nil {
			t.Fatal(err)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("kind %d: element %d differs", kind, i)
			}
		}
	}
}

func TestResampleErrors(t *testing.T) {
	if err := Resample([]float32{1}, make([]float32, 4), InterpLinear); err == nil {
		t.Error("single source sample must fail")
	}
	if err := Resample([]float32{1, 2}, make([]float32, 4), InterpKind(9)); err == nil {
		t.Error("unknown kind must fail")
	}
	if err := Resample([]float32{1, 2}, nil, InterpLinear); err != nil {
		t.Errorf("empty destination must be a no-op: %v", err)
	}
}

// TestResampleC64AllocatesNothing: a SAR row's complex resample borrows its
// split planes from a pool and runs inline below minParallel, so a steady
// stream of calls allocates nothing; the output is the split planes
// resampled one by one, bit for bit.
//
// Gate (check.sh): fixed costs.
func TestResampleC64AllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]complex64, 1024)
	for i := range src {
		src[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	dst := make([]complex64, 1024)
	for _, kind := range []InterpKind{InterpLinear, InterpCubic} {
		if avg := testing.AllocsPerRun(100, func() {
			if err := ResampleC64(src, dst, kind); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("kind %d: ResampleC64 of 1024 samples allocates %v times a call, want 0", kind, avg)
		}
		re, im := make([]float32, len(src)), make([]float32, len(src))
		for i, c := range src {
			re[i], im[i] = real(c), imag(c)
		}
		reOut, imOut := make([]float32, len(dst)), make([]float32, len(dst))
		if err := resampleNaive(re, reOut, kind); err != nil {
			t.Fatal(err)
		}
		if err := resampleNaive(im, imOut, kind); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if want := complex(reOut[i], imOut[i]); math.Float32bits(real(dst[i])) != math.Float32bits(real(want)) ||
				math.Float32bits(imag(dst[i])) != math.Float32bits(imag(want)) {
				t.Fatalf("kind %d: dst[%d] = %v, want %v", kind, i, dst[i], want)
			}
		}
	}
}
