package kernels

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"

	"mealib/internal/par"
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
	twiddles []complex64 // for radix-2: n/2 factors of the last stage
	// Radix-2 state: stages[s] holds stage s's factors w^k (k < 2^s) of the
	// length-2^(s+1) sub-transforms, contiguous (stages[0], the factor 1, is
	// never read: the first stage is twiddle-free), and swaps the
	// bit-reversal pairs (i, j) with i < j, flattened. Both are read-only
	// after construction.
	stages [][]complex64
	swaps  []int32
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
		lg := bits.TrailingZeros(uint(n))
		// Every stage but the last takes its table from one backing array
		// of 1 + 2 + ... + n/4 factors.
		backing := make([]complex64, n/2)
		p.stages = make([][]complex64, lg)
		for s := range p.stages {
			half, step := 1<<s, n>>(s+1)
			if step == 1 {
				p.stages[s] = p.twiddles
				break
			}
			t := backing[half-1 : 2*half-1]
			for k := range t {
				t[k] = p.twiddles[k*step]
			}
			p.stages[s] = t
		}
		// The indices whose lg-bit reversal is themselves stay put: 2^ceil(lg/2).
		p.swaps = make([]int32, 0, n-1<<((lg+1)/2))
		shift := 64 - uint(lg)
		for i := 0; i < n; i++ {
			if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
				p.swaps = append(p.swaps, int32(i), int32(j))
			}
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

// radix2 is the iterative in-place decimation-in-time transform: the
// bit-reversal permutation, then the stages two per pass. When log2 n is odd
// the first stage runs alone, twiddle-free; when it is even the first pass is
// a four-point butterfly.
func (p *FFTPlan) radix2(data []complex64) {
	sw := p.swaps
	for i := 0; i+1 < len(sw); i += 2 {
		a, b := sw[i], sw[i+1]
		data[a], data[b] = data[b], data[a]
	}
	s := 0
	switch {
	case len(p.stages)%2 == 1:
		for i := 0; i+1 < len(data); i += 2 {
			a, b := data[i], data[i+1]
			data[i], data[i+1] = a+b, a-b
		}
		s = 1
	case len(p.stages) >= 2:
		// The first two stages as one four-point butterfly: their only
		// factor other than 1 is the quarter turn w.
		w := p.stages[1][1]
		for i := 0; i+3 < len(data); i += 4 {
			q := data[i : i+4 : i+4]
			a0, a1 := q[0]+q[1], q[0]-q[1]
			a2, a3 := q[2]+q[3], q[2]-q[3]
			c3 := mul32(a3, w)
			q[0], q[2] = a0+a2, a0-a2
			q[1], q[3] = a1+c3, a1-c3
		}
		s = 2
	}
	for ; s+1 < len(p.stages); s += 2 {
		radix2Pass(data, p.stages[s], p.stages[s+1])
	}
}

// radix2Pass runs two consecutive radix-2 stages over data: the stage of
// factors t1 (half length h) and the next one of factors t2 (2h). Each block
// of 4h points is four quarter slices; the first stage pairs q0 with q1 and
// q2 with q3, the second pairs the first stage's sums, then its differences.
func radix2Pass(data, t1, t2 []complex64) {
	h := len(t1)
	t2a, t2b := t2[:h], t2[h:2*h]
	for start := 0; start+4*h <= len(data); start += 4 * h {
		// Every slice the loop reads has len(q0), so it runs without
		// bounds checks.
		q0 := data[start : start+h]
		q1 := data[start+h : start+2*h][:len(q0)]
		q2 := data[start+2*h : start+3*h][:len(q0)]
		q3 := data[start+3*h : start+4*h][:len(q0)]
		w1s, w2s, w3s := t1[:len(q0)], t2a[:len(q0)], t2b[:len(q0)]
		for k := range q0 {
			w1 := w1s[k]
			b1 := mul32(q1[k], w1)
			b3 := mul32(q3[k], w1)
			a0, a1 := q0[k]+b1, q0[k]-b1
			a2, a3 := q2[k]+b3, q2[k]-b3
			c2 := mul32(a2, w2s[k])
			c3 := mul32(a3, w3s[k])
			q0[k], q2[k] = a0+c2, a0-c2
			q1[k], q3[k] = a1+c3, a1-c3
		}
	}
}

// mul32 is the complex product in float32. Go's own complex64 product is
// computed in float64; each float32 conversion here rounds its product, so
// no architecture fuses it into an FMA and the result is the same on every
// GOARCH.
func mul32(a, w complex64) complex64 {
	ar, ai, wr, wi := real(a), imag(a), real(w), imag(w)
	return complex(float32(ar*wr)-float32(ai*wi), float32(ar*wi)+float32(ai*wr))
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
// to back in data — the batched FFT of the STAP Doppler stage. From
// minParallel transforms on it runs chunks of grain transforms on par;
// below that it runs them inline and allocates nothing but the plan of a
// length that is not a power of two. The error returned is the first
// transform's, in batch order.
func FFTBatch(p *FFTPlan, data []complex64, howMany int) error {
	n := p.Len()
	if len(data) < n*howMany {
		return fmt.Errorf("kernels: fft batch: data length %d < %d transforms of %d", len(data), howMany, n)
	}
	if howMany < minParallel {
		return fftRange(p, make([]*FFTPlan, 1), 0, data, 0, howMany)
	}
	chunks := (howMany + grain - 1) / grain
	var locals []*FFTPlan
	if !p.pow2 {
		locals = make([]*FFTPlan, chunks)
	}
	return par.Do(chunks, chunks, func(w, c int) error {
		return fftRange(p, locals, w, data, c*grain, min((c+1)*grain, howMany))
	})
}

// fftRange executes transforms [lo, hi) of data, every one of them, and
// returns the first error. A length that is not a power of two runs on
// locals[w], worker w's own plan (scratch aliasing), made on first use; a
// power of two never reads locals.
func fftRange(p *FFTPlan, locals []*FFTPlan, w int, data []complex64, lo, hi int) error {
	n := p.Len()
	if !p.pow2 {
		if locals[w] == nil {
			var err error
			if locals[w], err = NewFFTPlan(n, p.dir); err != nil {
				return err
			}
		}
		p = locals[w]
	}
	var first error
	for b := lo; b < hi; b++ {
		if err := p.Execute(data[b*n : (b+1)*n]); err != nil && first == nil {
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
