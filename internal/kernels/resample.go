package kernels

import (
	"fmt"
	"sync"
)

// InterpKind selects the interpolation rule used by Resample.
type InterpKind int

// Supported interpolation rules (MKL's data-fitting dfsInterpolate1D offers
// a family; linear and cubic cover the SAR/STAP use).
const (
	InterpLinear InterpKind = iota
	InterpCubic             // Catmull-Rom
)

// ResampleNaive resamples the uniformly sampled signal src (over [0,1]) onto
// m uniformly spaced output points, the memory-bounded core of MKL's
// dfsInterpolate1D as used by the RESMP accelerator.
func ResampleNaive(src []float32, dst []float32, kind InterpKind) error {
	return resample(src, dst, kind, false)
}

// Resample is the optimized parallel variant.
func Resample(src []float32, dst []float32, kind InterpKind) error {
	return resample(src, dst, kind, true)
}

func resample(src, dst []float32, kind InterpKind, parallel bool) error {
	n, m := len(src), len(dst)
	if n < 2 {
		return fmt.Errorf("kernels: resample: need at least 2 source samples, have %d", n)
	}
	if m == 0 {
		return nil
	}
	if kind != InterpLinear && kind != InterpCubic {
		return fmt.Errorf("kernels: resample: unknown interpolation kind %d", kind)
	}
	scale := float64(n-1) / float64(max(m-1, 1))
	if parallel && m >= minParallel {
		// The closure is built only here: below minParallel a call allocates
		// nothing.
		parallelRanges(m, func(lo, hi int) int { resampleRange(src, dst, kind, scale, lo, hi); return hi })
	} else {
		resampleRange(src, dst, kind, scale, 0, m)
	}
	return nil
}

// resampleRange computes dst[lo:hi].
func resampleRange(src, dst []float32, kind InterpKind, scale float64, lo, hi int) {
	n := len(src)
	for i := lo; i < hi; i++ {
		pos := float64(i) * scale
		j := int(pos)
		if j >= n-1 {
			j = n - 2
		}
		t := float32(pos - float64(j))
		switch kind {
		case InterpLinear:
			dst[i] = src[j] + t*(src[j+1]-src[j])
		case InterpCubic:
			dst[i] = catmullRom(sampleExtrapolated(src, j-1), src[j], src[j+1], sampleExtrapolated(src, j+2), t)
		}
	}
}

// splitScratch holds the split planes of ResampleC64, so that a steady
// stream of calls (one per SAR row) allocates nothing.
var splitScratch = sync.Pool{New: func() any { return new([]float32) }}

// ResampleC64 resamples a complex signal by interpolating the real and
// imaginary parts independently (the SAR range-interpolation use of the
// RESMP accelerator).
func ResampleC64(src []complex64, dst []complex64, kind InterpKind) error {
	n, m := len(src), len(dst)
	if n < 2 {
		return fmt.Errorf("kernels: resample: need at least 2 source samples, have %d", n)
	}
	buf := splitScratch.Get().(*[]float32)
	defer splitScratch.Put(buf)
	if cap(*buf) < 2*(n+m) {
		*buf = make([]float32, 2*(n+m))
	}
	planes := (*buf)[:2*(n+m)]
	re, im := planes[:n:n], planes[n:2*n:2*n]
	reOut, imOut := planes[2*n:2*n+m:2*n+m], planes[2*n+m:]
	for i, c := range src {
		re[i] = real(c)
		im[i] = imag(c)
	}
	if err := Resample(re, reOut, kind); err != nil {
		return err
	}
	if err := Resample(im, imOut, kind); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = complex(reOut[i], imOut[i])
	}
	return nil
}

// catmullRom evaluates the Catmull-Rom cubic through p0..p3 at t in [0,1]
// between p1 and p2.
func catmullRom(p0, p1, p2, p3, t float32) float32 {
	a := 2 * p1
	b := p2 - p0
	c := 2*p0 - 5*p1 + 4*p2 - p3
	d := -p0 + 3*p1 - 3*p2 + p3
	return 0.5 * (a + b*t + c*t*t + d*t*t*t)
}

// sampleExtrapolated reads s[i], extending the signal linearly past its ends
// so Catmull-Rom keeps linear precision at the boundaries.
func sampleExtrapolated(s []float32, i int) float32 {
	if i < 0 {
		return 2*s[0] - s[1]
	}
	if i >= len(s) {
		return 2*s[len(s)-1] - s[len(s)-2]
	}
	return s[i]
}
