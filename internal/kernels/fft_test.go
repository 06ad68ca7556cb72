package kernels

import (
	"fmt"
	"math"
	"math/bits"
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

// refRadix2 is the radix-2 loop the two-stage kernel replaced: one stage per
// pass over the last stage's twiddle table, with Go's complex64 product. It
// is the reference the kernel's accuracy is held to.
func refRadix2(p *FFTPlan, data []complex64) {
	n := p.n
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			data[i], data[j] = data[j], data[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		step := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < half; k++ {
				w := p.twiddles[k*step]
				a := data[start+k]
				b := data[start+k+half] * w
				data[start+k] = a + b
				data[start+k+half] = a - b
			}
		}
	}
}

// refExecute is Execute with refRadix2 in place of the kernel, Bluestein's
// two sub-transforms included.
func refExecute(p *FFTPlan, data []complex64) {
	switch {
	case p.n == 1:
	case p.pow2:
		refRadix2(p, data)
	default:
		a := make([]complex64, p.m)
		for k := 0; k < p.n; k++ {
			a[k] = data[k] * p.chirp[k]
		}
		refRadix2(p.sub, a)
		for k := range a {
			a[k] *= p.bq[k]
		}
		refRadix2(p.subInv, a)
		inv := complex(float32(1)/float32(p.m), 0)
		for k := 0; k < p.n; k++ {
			data[k] = a[k] * inv * p.chirp[k]
		}
	}
}

// fft64 is a float64 radix-2 transform of a power-of-two length, with every
// twiddle factor computed directly: the exact answer the float32 kernels are
// measured against.
func fft64(x []complex64, dir Direction) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range x {
		out[bits.Reverse64(uint64(i))>>shift] = complex128(x[i])
	}
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		for k := 0; k < half; k++ {
			s, c := math.Sincos(sign * 2 * math.Pi * float64(k) / float64(size))
			w := complex(c, s)
			for start := 0; start < n; start += size {
				a, b := out[start+k], out[start+k+half]*w
				out[start+k], out[start+k+half] = a+b, a-b
			}
		}
	}
	return out
}

// sqErr accumulates |got - want|^2 and |want|^2.
func sqErr(got []complex64, want func(i int) complex128) (diff, norm float64) {
	for i, g := range got {
		w := want(i)
		d := complex128(g) - w
		diff += real(d)*real(d) + imag(d)*imag(d)
		norm += real(w)*real(w) + imag(w)*imag(w)
	}
	return diff, norm
}

// relRMS is the relative RMS distance of got from want.
func relRMS(got, want []complex64) float64 {
	diff, norm := sqErr(got, func(i int) complex128 { return complex128(want[i]) })
	if norm == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(diff / norm)
}

// fftRefBound is how far, in relative RMS, the kernel may be from refRadix2.
const fftRefBound = 1e-6

// TestFFTMatchesReferenceKernel holds the two-stage float32 kernel to the
// one-stage loop it replaced at every power-of-two length from 2 to 2^16, in
// both directions: within fftRefBound of it, and no more than 1.25 times its
// relative RMS error against a float64 transform. Small lengths run enough
// transforms that each error is measured over 2^16 points.
func TestFFTMatchesReferenceKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for lg := 1; lg <= 16; lg++ {
		n := 1 << lg
		for _, dir := range []Direction{Forward, Inverse} {
			p, err := NewFFTPlan(n, dir)
			if err != nil {
				t.Fatal(err)
			}
			var gotD, refD, exactN, apart float64
			for trial := 0; trial < (1<<16)/n; trial++ {
				x := randCVec(rng, n)
				exact := fft64(x, dir)
				got := append([]complex64(nil), x...)
				if err := p.Execute(got); err != nil {
					t.Fatal(err)
				}
				ref := append([]complex64(nil), x...)
				refRadix2(p, ref)
				d, norm := sqErr(got, func(i int) complex128 { return complex128(ref[i]) })
				apart += d / norm
				d, norm = sqErr(got, func(i int) complex128 { return exact[i] })
				gotD, exactN = gotD+d, exactN+norm
				d, _ = sqErr(ref, func(i int) complex128 { return exact[i] })
				refD += d
			}
			trials := float64((1 << 16) / n)
			if r := math.Sqrt(apart / trials); r > fftRefBound {
				t.Errorf("n=%d dir=%d: relative RMS %.3g from the reference kernel, want <= %g", n, dir, r, fftRefBound)
			}
			gotE, refE := math.Sqrt(gotD/exactN), math.Sqrt(refD/exactN)
			t.Logf("n=%d dir=%d: %.3g from the reference kernel; error against float64 %.3g, reference's %.3g", n, dir, math.Sqrt(apart/trials), gotE, refE)
			if gotE > 1.25*refE {
				t.Errorf("n=%d dir=%d: relative RMS error %.3g against float64, reference's %.3g: over 1.25x", n, dir, gotE, refE)
			}
		}
	}
}

// FuzzFFT draws a length up to 4096 (powers of two and Bluestein lengths)
// and finite inputs with |x| <= 2^20: the kernel must not panic and must be
// within fftRefBound of the reference kernel.
func FuzzFFT(f *testing.F) {
	f.Add(uint16(1024), false, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(64), true, []byte{0xff, 0x7f, 0x80, 0x00})
	f.Add(uint16(12), false, []byte{9, 8, 7})
	f.Add(uint16(1), true, []byte{})
	f.Add(uint16(4095), false, []byte{0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Fuzz(func(t *testing.T, n uint16, inverse bool, b []byte) {
		size := int(n)%4096 + 1
		dir := Forward
		if inverse {
			dir = Inverse
		}
		// Each value is a signed byte pair scaled by a power of two drawn
		// from a third byte, so magnitudes span 2^-30..2^20.
		x := make([]complex64, size)
		val := func(i int) float32 {
			if len(b) < 3 {
				return float32(i % 7)
			}
			j := (3 * i) % (len(b) - 2)
			m := float32(int16(uint16(b[j])<<8|uint16(b[j+1]))) / (1 << 15)
			return m * float32(math.Ldexp(1, int(b[j+2])%51-30))
		}
		for i := range x {
			x[i] = complex(val(2*i), val(2*i+1))
		}
		p, err := NewFFTPlan(size, dir)
		if err != nil {
			t.Fatal(err)
		}
		got := append([]complex64(nil), x...)
		if err := p.Execute(got); err != nil {
			t.Fatal(err)
		}
		ref := append([]complex64(nil), x...)
		refExecute(p, ref)
		if r := relRMS(got, ref); r > fftRefBound {
			t.Fatalf("n=%d dir=%d: relative RMS %.3g from the reference kernel, want <= %g", size, dir, r, fftRefBound)
		}
	})
}

// BenchmarkFFT is one transform of each length pipeline and loop_kernels
// run, on a shared plan. Each iteration transforms a fresh copy of the input:
// transforming the output again would grow it by sqrt(n) a time until it
// overflowed.
func BenchmarkFFT(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p, err := SharedFFTPlan(n, Forward)
			if err != nil {
				b.Fatal(err)
			}
			x := randCVec(rand.New(rand.NewSource(15)), n)
			work := make([]complex64, n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, x)
				if err := p.Execute(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
