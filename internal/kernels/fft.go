package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"runtime"
	"sync"
)

// Direction selects forward or inverse transform (FFTW sign convention:
// forward uses exp(-2*pi*i*k*n/N)).
type Direction int

// Transform directions.
const (
	Forward Direction = iota
	Inverse
)

// FFTPlan caches twiddle factors and scratch for repeated transforms of one
// length, mirroring fftwf_plan_guru_dft's plan/execute split.
type FFTPlan struct {
	n        int
	dir      Direction
	pow2     bool
	twiddles []complex64 // for radix-2: n/2 factors
	// Bluestein state for non-power-of-two lengths.
	m       int // padded power-of-two length >= 2n-1
	chirp   []complex64
	bq      []complex64 // pre-transformed chirp filter
	sub     *FFTPlan    // radix-2 plan of length m (forward)
	subInv  *FFTPlan    // radix-2 plan of length m (inverse)
	scratch []complex64
}

// NewFFTPlan prepares a transform of length n in the given direction.
// Any n >= 1 is supported; powers of two use iterative radix-2 and other
// lengths use Bluestein's algorithm.
func NewFFTPlan(n int, dir Direction) (*FFTPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("kernels: fft: invalid length %d", n)
	}
	p := &FFTPlan{n: n, dir: dir}
	if n&(n-1) == 0 {
		p.pow2 = true
		p.twiddles = make([]complex64, n/2)
		sign := -1.0
		if dir == Inverse {
			sign = 1.0
		}
		for k := range p.twiddles {
			ang := sign * 2 * math.Pi * float64(k) / float64(n)
			p.twiddles[k] = complex64(cmplx.Exp(complex(0, ang)))
		}
		return p, nil
	}
	// Bluestein: x[k]*chirp[k], convolve with conj chirp, multiply chirp.
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	sign := -1.0
	if dir == Inverse {
		sign = 1.0
	}
	p.chirp = make([]complex64, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n keeps the angle argument small.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := sign * math.Pi * float64(kk) / float64(n)
		p.chirp[k] = complex64(cmplx.Exp(complex(0, ang)))
	}
	// The convolution sub-plans are power-of-two and immutable, so they
	// come from the shared cache: Bluestein plans of one length then share
	// their twiddle tables even when each caller needs private scratch.
	var err error
	p.sub, err = SharedFFTPlan(m, Forward)
	if err != nil {
		return nil, err
	}
	p.subInv, err = SharedFFTPlan(m, Inverse)
	if err != nil {
		return nil, err
	}
	b := make([]complex64, m)
	b[0] = complex64(cmplx.Conj(complex128(p.chirp[0])))
	for k := 1; k < n; k++ {
		c := complex64(cmplx.Conj(complex128(p.chirp[k])))
		b[k] = c
		b[m-k] = c
	}
	if err := p.sub.Execute(b); err != nil {
		return nil, err
	}
	p.bq = b
	p.scratch = make([]complex64, m)
	return p, nil
}

// Len returns the transform length.
func (p *FFTPlan) Len() int { return p.n }

// Direction returns the transform direction.
func (p *FFTPlan) Direction() Direction { return p.dir }

// Execute transforms data in place. len(data) must equal the plan length.
// Inverse transforms are unscaled (FFTW convention): IFFT(FFT(x)) == n*x.
func (p *FFTPlan) Execute(data []complex64) error {
	if len(data) != p.n {
		return fmt.Errorf("kernels: fft: data length %d != plan length %d", len(data), p.n)
	}
	if p.n == 1 {
		return nil
	}
	if p.pow2 {
		p.radix2(data)
		return nil
	}
	return p.bluestein(data)
}

// radix2 is the iterative in-place decimation-in-time transform.
func (p *FFTPlan) radix2(data []complex64) {
	n := p.n
	// Bit-reversal permutation.
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

// bluestein evaluates an arbitrary-length DFT as a convolution.
func (p *FFTPlan) bluestein(data []complex64) error {
	n, m := p.n, p.m
	a := p.scratch
	for k := 0; k < n; k++ {
		a[k] = data[k] * p.chirp[k]
	}
	for k := n; k < m; k++ {
		a[k] = 0
	}
	if err := p.sub.Execute(a); err != nil {
		return err
	}
	for k := 0; k < m; k++ {
		a[k] *= p.bq[k]
	}
	if err := p.subInv.Execute(a); err != nil {
		return err
	}
	inv := complex(float32(1)/float32(m), 0)
	for k := 0; k < n; k++ {
		data[k] = a[k] * inv * p.chirp[k]
	}
	return nil
}

// planKey identifies a cacheable plan: length and direction.
type planKey struct {
	n   int
	dir Direction
}

// planCache holds shared power-of-two plans. A radix-2 plan is immutable
// after construction (Execute reads only the twiddle table), so one plan is
// safe to share across goroutines; Bluestein plans carry mutable scratch
// and are never cached.
var planCache sync.Map // planKey -> *FFTPlan

// SharedFFTPlan returns a cached plan for power-of-two lengths and a fresh
// plan otherwise. Power-of-two twiddle tables dominate small-transform
// launch cost (the table is recomputed per call in the naive path), so
// repeated-launch workloads — LOOP bodies, pipelined descriptors — should
// prefer this over NewFFTPlan. The cache is bounded by construction: at
// most one entry per (power-of-two length, direction) pair.
func SharedFFTPlan(n int, dir Direction) (*FFTPlan, error) {
	if n < 1 || n&(n-1) != 0 {
		return NewFFTPlan(n, dir)
	}
	key := planKey{n: n, dir: dir}
	if v, ok := planCache.Load(key); ok {
		return v.(*FFTPlan), nil
	}
	p, err := NewFFTPlan(n, dir)
	if err != nil {
		return nil, err
	}
	v, _ := planCache.LoadOrStore(key, p)
	return v.(*FFTPlan), nil
}

// FFT transforms data in place without plan reuse (convenience wrapper).
func FFT(data []complex64, dir Direction) error {
	p, err := NewFFTPlan(len(data), dir)
	if err != nil {
		return err
	}
	return p.Execute(data)
}

// FFTBatch executes the plan over howMany contiguous transforms stored back
// to back in data, in parallel — the batched FFT of the STAP Doppler stage.
// Below minParallel transforms it runs them inline and allocates nothing but
// the per-call plan of a length that is not a power of two. The error
// returned is the first transform's, in batch order.
func FFTBatch(p *FFTPlan, data []complex64, howMany int) error {
	n := p.Len()
	if len(data) < n*howMany {
		return fmt.Errorf("kernels: fft batch: data length %d < %d transforms of %d", len(data), howMany, n)
	}
	if howMany < minParallel || runtime.GOMAXPROCS(0) <= 1 {
		return fftRange(p, data, 0, howMany)
	}
	// One slot per range, at its first transform.
	errs := make([]error, howMany)
	parallelRanges(howMany, func(lo, hi int) { errs[lo] = fftRange(p, data, lo, hi) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fftRange executes transforms [lo, hi) of data, every one of them, and
// returns the first error.
func fftRange(p *FFTPlan, data []complex64, lo, hi int) error {
	n := p.Len()
	// Each range needs its own plan state (scratch aliasing).
	local := p
	if !p.pow2 {
		var err error
		if local, err = NewFFTPlan(n, p.dir); err != nil {
			return err
		}
	}
	var first error
	for b := lo; b < hi; b++ {
		if err := local.Execute(data[b*n : (b+1)*n]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// FFT2D transforms an r x c row-major complex matrix in place (rows then
// columns), the 2-D transform used by SAR image formation.
func FFT2D(data []complex64, r, c int, dir Direction) error {
	if len(data) < r*c {
		return fmt.Errorf("kernels: fft2d: data length %d < %dx%d", len(data), r, c)
	}
	rowPlan, err := NewFFTPlan(c, dir)
	if err != nil {
		return err
	}
	if err := FFTBatch(rowPlan, data[:r*c], r); err != nil {
		return err
	}
	colPlan, err := NewFFTPlan(r, dir)
	if err != nil {
		return err
	}
	col := make([]complex64, r)
	for j := 0; j < c; j++ {
		for i := 0; i < r; i++ {
			col[i] = data[i*c+j]
		}
		if err := colPlan.Execute(col); err != nil {
			return err
		}
		for i := 0; i < r; i++ {
			data[i*c+j] = col[i]
		}
	}
	return nil
}
