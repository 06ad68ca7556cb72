package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// dftNaive is the O(n^2) reference DFT.
func dftNaive(x []complex64, dir Direction) []complex64 {
	n := len(x)
	out := make([]complex64, n)
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += complex128(x[j]) * cmplx.Exp(complex(0, ang))
		}
		out[k] = complex64(sum)
	}
	return out
}

func randCVec(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return v
}

func maxAbsDiff(a, b []complex64) float64 {
	var m float64
	for i := range a {
		d := cmplx.Abs(complex128(a[i]) - complex128(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 3, 5, 6, 7, 12, 100, 127} {
		x := randCVec(rng, n)
		want := dftNaive(x, Forward)
		got := append([]complex64(nil), x...)
		if err := FFT(got, Forward); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if d := maxAbsDiff(got, want); d > 1e-3*float64(n) {
			t.Errorf("n=%d: max diff %g vs naive DFT", n, d)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{2, 8, 256, 5, 30, 101} {
		x := randCVec(rng, n)
		y := append([]complex64(nil), x...)
		if err := FFT(y, Forward); err != nil {
			t.Fatal(err)
		}
		if err := FFT(y, Inverse); err != nil {
			t.Fatal(err)
		}
		// FFTW convention: unscaled inverse, so divide by n.
		inv := complex(float32(1)/float32(n), 0)
		for i := range y {
			y[i] *= inv
		}
		if d := maxAbsDiff(x, y); d > 1e-4*float64(n) {
			t.Errorf("n=%d: round trip diff %g", n, d)
		}
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex64, 16)
	x[0] = 1
	if err := FFT(x, Forward); err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		if cmplx.Abs(complex128(v)-1) > 1e-5 {
			t.Errorf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 512
	x := randCVec(rng, n)
	var timeE float64
	for _, v := range x {
		timeE += real(complex128(v) * cmplx.Conj(complex128(v)))
	}
	if err := FFT(x, Forward); err != nil {
		t.Fatal(err)
	}
	var freqE float64
	for _, v := range x {
		freqE += real(complex128(v) * cmplx.Conj(complex128(v)))
	}
	if !almostEqual(freqE, timeE*float64(n), 1e-4) {
		t.Errorf("Parseval: freq %g vs n*time %g", freqE, timeE*float64(n))
	}
}

func TestFFTPlanReuse(t *testing.T) {
	p, err := NewFFTPlan(64, Forward)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 3; trial++ {
		x := randCVec(rng, 64)
		want := dftNaive(x, Forward)
		if err := p.Execute(x); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(x, want); d > 1e-2 {
			t.Errorf("trial %d: plan reuse diff %g", trial, d)
		}
	}
}

func TestFFTErrors(t *testing.T) {
	if _, err := NewFFTPlan(0, Forward); err == nil {
		t.Error("zero-length plan must fail")
	}
	p, err := NewFFTPlan(8, Forward)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Execute(make([]complex64, 4)); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestFFTBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n, howMany := 32, 20
	data := randCVec(rng, n*howMany)
	want := make([]complex64, 0, n*howMany)
	for b := 0; b < howMany; b++ {
		want = append(want, dftNaive(data[b*n:(b+1)*n], Forward)...)
	}
	p, err := NewFFTPlan(n, Forward)
	if err != nil {
		t.Fatal(err)
	}
	if err := FFTBatch(p, data, howMany); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(data, want); d > 1e-2 {
		t.Errorf("batch diff %g", d)
	}
}

func TestFFTBatchNonPow2(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n, howMany := 12, 8
	data := randCVec(rng, n*howMany)
	want := make([]complex64, 0, n*howMany)
	for b := 0; b < howMany; b++ {
		want = append(want, dftNaive(data[b*n:(b+1)*n], Forward)...)
	}
	p, err := NewFFTPlan(n, Forward)
	if err != nil {
		t.Fatal(err)
	}
	if err := FFTBatch(p, data, howMany); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(data, want); d > 1e-2 {
		t.Errorf("non-pow2 batch diff %g", d)
	}
}

func TestFFT2D(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r, c := 8, 16
	data := randCVec(rng, r*c)
	// Reference: naive DFT on rows, then columns.
	want := make([]complex64, r*c)
	copy(want, data)
	for i := 0; i < r; i++ {
		copy(want[i*c:(i+1)*c], dftNaive(want[i*c:(i+1)*c], Forward))
	}
	col := make([]complex64, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			col[i] = want[i*c+j]
		}
		col2 := dftNaive(col, Forward)
		for i := 0; i < r; i++ {
			want[i*c+j] = col2[i]
		}
	}
	if err := FFT2D(data, r, c, Forward); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(data, want); d > 1e-2 {
		t.Errorf("2D diff %g", d)
	}
}

func TestFFT2DErrors(t *testing.T) {
	if err := FFT2D(make([]complex64, 4), 4, 4, Forward); err == nil {
		t.Error("short buffer must fail")
	}
}

// TestFFTBatchInlineAllocatesNothing: below minParallel transforms a batch of
// a power-of-two length runs inline on the shared plan and allocates nothing.
//
// Gate (check.sh): fixed costs.
func TestFFTBatchInlineAllocatesNothing(t *testing.T) {
	p, err := SharedFFTPlan(1024, Forward)
	if err != nil {
		t.Fatal(err)
	}
	for _, howMany := range []int{1, 4} {
		data := make([]complex64, 1024*howMany)
		if avg := testing.AllocsPerRun(100, func() {
			if err := FFTBatch(p, data, howMany); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("FFTBatch of %d transforms allocates %v times a call, want 0", howMany, avg)
		}
	}
}
