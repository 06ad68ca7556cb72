package accel

import (
	"fmt"
	"sync"

	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// The cores operate on zero-copy views of the simulated DRAM
// (phys.ViewFloat32s and friends): an aliased view writes the space in
// place, with no copy-out/copy-back round trip per invocation. Kernels
// that genuinely need out-of-place scratch (an exact-aliased RESMP, an
// out-of-place transpose onto an overlapping span) draw it from sync.Pools
// so steady-state invocations allocate nothing.

var (
	f32Scratch = sync.Pool{New: func() any { return new([]float32) }}
	c64Scratch = sync.Pool{New: func() any { return new([]complex64) }}
)

// getF32 borrows a float32 scratch slice of length n.
func getF32(n int) *[]float32 {
	p := f32Scratch.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

// getC64 borrows a complex64 scratch slice of length n.
func getC64(n int) *[]complex64 {
	p := c64Scratch.Get().(*[]complex64)
	if cap(*p) < n {
		*p = make([]complex64, n)
	}
	*p = (*p)[:n]
	return p
}

// overlaps reports whether the byte spans [a, a+an) and [b, b+bn) share a
// byte. The cores use it to decide when in-place view execution would let a
// kernel read bytes it already overwrote (so a scratch snapshot is needed
// to preserve copy-in/copy-out semantics).
func overlaps(a phys.Addr, an int64, b phys.Addr, bn int64) bool {
	return span.Span{Addr: a, Bytes: units.Bytes(an)}.Overlaps(span.Span{Addr: b, Bytes: units.Bytes(bn)})
}

// vecLen returns the number of elements a strided vector touches.
func vecLen(n, inc int64) int { return int(elems(n, inc, 1)) }

func axpyCore(s *phys.Space, a *AxpyArgs) error {
	if a.N < 0 {
		return fmt.Errorf("accel: AXPY: negative n %d", a.N)
	}
	nx, ny := vecLen(a.N, a.IncX), vecLen(a.N, a.IncY)
	x, err := s.ViewFloat32s(a.X, nx)
	if err != nil {
		return fmt.Errorf("accel: AXPY x: %w", err)
	}
	y, err := s.ViewFloat32s(a.Y, ny)
	if err != nil {
		return fmt.Errorf("accel: AXPY y: %w", err)
	}
	xs := x.Data
	// If both views alias DRAM and the spans overlap, snapshot x so the
	// streaming semantics (x fully read before y is stored) are preserved.
	if x.Aliased() && y.Aliased() && overlaps(a.X, 4*int64(nx), a.Y, 4*int64(ny)) {
		p := getF32(nx)
		defer f32Scratch.Put(p)
		copy(*p, x.Data)
		xs = *p
	}
	if err := kernels.Saxpy(int(a.N), a.Alpha, xs, int(a.IncX), y.Data, int(a.IncY)); err != nil {
		return err
	}
	return y.Commit()
}

func dotCore(s *phys.Space, a *DotArgs) error {
	if a.N < 0 {
		return fmt.Errorf("accel: DOT: negative n %d", a.N)
	}
	if a.Complex {
		x, err := s.ViewComplex64s(a.X, vecLen(a.N, a.IncX))
		if err != nil {
			return fmt.Errorf("accel: DOT x: %w", err)
		}
		y, err := s.ViewComplex64s(a.Y, vecLen(a.N, a.IncY))
		if err != nil {
			return fmt.Errorf("accel: DOT y: %w", err)
		}
		r, err := kernels.Cdotc(int(a.N), x.Data, int(a.IncX), y.Data, int(a.IncY))
		if err != nil {
			return err
		}
		return s.WriteComplex64(a.Out, r)
	}
	x, err := s.ViewFloat32s(a.X, vecLen(a.N, a.IncX))
	if err != nil {
		return fmt.Errorf("accel: DOT x: %w", err)
	}
	y, err := s.ViewFloat32s(a.Y, vecLen(a.N, a.IncY))
	if err != nil {
		return fmt.Errorf("accel: DOT y: %w", err)
	}
	r, err := kernels.Sdot(int(a.N), x.Data, int(a.IncX), y.Data, int(a.IncY))
	if err != nil {
		return err
	}
	return s.WriteFloat32(a.Out, r)
}

func gemvCore(s *phys.Space, a *GemvArgs) error {
	if a.M < 0 || a.N < 0 || a.Lda < a.N {
		return fmt.Errorf("accel: GEMV: bad dimensions m=%d n=%d lda=%d", a.M, a.N, a.Lda)
	}
	matLen := 0
	if a.M > 0 {
		matLen = int((a.M-1)*a.Lda + a.N)
	}
	mat, err := s.ViewFloat32s(a.A, matLen)
	if err != nil {
		return fmt.Errorf("accel: GEMV A: %w", err)
	}
	x, err := s.ViewFloat32s(a.X, int(a.N))
	if err != nil {
		return fmt.Errorf("accel: GEMV x: %w", err)
	}
	y, err := s.ViewFloat32s(a.Y, int(a.M))
	if err != nil {
		return fmt.Errorf("accel: GEMV y: %w", err)
	}
	// y is written row by row while A and x are still being read: snapshot
	// any aliased read operand the y span overlaps.
	ms, xs := mat.Data, x.Data
	if y.Aliased() && mat.Aliased() && overlaps(a.Y, 4*a.M, a.A, 4*int64(matLen)) {
		p := getF32(matLen)
		defer f32Scratch.Put(p)
		copy(*p, mat.Data)
		ms = *p
	}
	if y.Aliased() && x.Aliased() && overlaps(a.Y, 4*a.M, a.X, 4*a.N) {
		p := getF32(int(a.N))
		defer f32Scratch.Put(p)
		copy(*p, x.Data)
		xs = *p
	}
	if err := kernels.Sgemv(int(a.M), int(a.N), a.Alpha, ms, int(a.Lda), xs, a.Beta, y.Data); err != nil {
		return err
	}
	return y.Commit()
}

func spmvCore(s *phys.Space, a *SpmvArgs) error {
	if a.M < 0 || a.Cols < 0 || a.NNZ < 0 {
		return fmt.Errorf("accel: SPMV: negative dimensions")
	}
	rowPtr, err := s.ViewInt32s(a.RowPtr, int(a.M)+1)
	if err != nil {
		return fmt.Errorf("accel: SPMV rowPtr: %w", err)
	}
	colIdx, err := s.ViewInt32s(a.ColIdx, int(a.NNZ))
	if err != nil {
		return fmt.Errorf("accel: SPMV colIdx: %w", err)
	}
	values, err := s.ViewFloat32s(a.Values, int(a.NNZ))
	if err != nil {
		return fmt.Errorf("accel: SPMV values: %w", err)
	}
	x, err := s.ViewFloat32s(a.X, int(a.Cols))
	if err != nil {
		return fmt.Errorf("accel: SPMV x: %w", err)
	}
	y, err := s.ViewFloat32s(a.Y, int(a.M))
	if err != nil {
		return fmt.Errorf("accel: SPMV y: %w", err)
	}
	// The gather vector is the only read operand whose elements are revisited
	// while y is written; snapshot it if y aliases over it.
	xs := x.Data
	if y.Aliased() && x.Aliased() && overlaps(a.Y, 4*a.M, a.X, 4*a.Cols) {
		p := getF32(int(a.Cols))
		defer f32Scratch.Put(p)
		copy(*p, x.Data)
		xs = *p
	}
	if err := kernels.SpmvCSRSemiring(int(a.M), rowPtr.Data, colIdx.Data, values.Data, xs, y.Data, a.Semiring, a.Bias); err != nil {
		return err
	}
	return y.Commit()
}

func resmpCore(s *phys.Space, a *ResmpArgs) error {
	if a.NIn < 2 || a.NOut < 0 {
		return fmt.Errorf("accel: RESMP: bad sizes in=%d out=%d", a.NIn, a.NOut)
	}
	if a.Kind >= ResmpComplex {
		src, err := s.ViewComplex64s(a.Src, int(a.NIn))
		if err != nil {
			return fmt.Errorf("accel: RESMP src: %w", err)
		}
		dst, err := s.ViewComplex64s(a.Dst, int(a.NOut))
		if err != nil {
			return fmt.Errorf("accel: RESMP dst: %w", err)
		}
		ss := src.Data
		if src.Aliased() && dst.Aliased() && overlaps(a.Src, 8*a.NIn, a.Dst, 8*a.NOut) {
			p := getC64(int(a.NIn))
			defer c64Scratch.Put(p)
			copy(*p, src.Data)
			ss = *p
		}
		if err := kernels.ResampleC64(ss, dst.Data, kernels.InterpKind(a.Kind-ResmpComplex)); err != nil {
			return err
		}
		return dst.Commit()
	}
	src, err := s.ViewFloat32s(a.Src, int(a.NIn))
	if err != nil {
		return fmt.Errorf("accel: RESMP src: %w", err)
	}
	dst, err := s.ViewFloat32s(a.Dst, int(a.NOut))
	if err != nil {
		return fmt.Errorf("accel: RESMP dst: %w", err)
	}
	ss := src.Data
	if src.Aliased() && dst.Aliased() && overlaps(a.Src, 4*a.NIn, a.Dst, 4*a.NOut) {
		p := getF32(int(a.NIn))
		defer f32Scratch.Put(p)
		copy(*p, src.Data)
		ss = *p
	}
	if err := kernels.Resample(ss, dst.Data, kernels.InterpKind(a.Kind)); err != nil {
		return err
	}
	return dst.Commit()
}

func fftCore(s *phys.Space, a *FFTArgs) error {
	if a.N < 1 || a.HowMany < 1 {
		return fmt.Errorf("accel: FFT: bad sizes n=%d howmany=%d", a.N, a.HowMany)
	}
	total := int(a.N * a.HowMany)
	dir := kernels.Forward
	if a.Inverse {
		dir = kernels.Inverse
	}
	// Hardwired FFT engines keep their twiddle ROMs across launches; the
	// shared plan cache models that — a LOOP of same-length transforms pays
	// for the table once, not per iteration.
	plan, err := kernels.SharedFFTPlan(int(a.N), dir)
	if err != nil {
		return err
	}
	dst, err := s.ViewComplex64s(a.Dst, total)
	if err != nil {
		return fmt.Errorf("accel: FFT dst: %w", err)
	}
	if a.Src != a.Dst {
		src, err := s.ViewComplex64s(a.Src, total)
		if err != nil {
			return fmt.Errorf("accel: FFT src: %w", err)
		}
		// Out of place: move the input into dst, then transform in place.
		// copy has memmove semantics, so overlapping aliased views still
		// deliver an exact image of src.
		copy(dst.Data, src.Data)
	}
	if err := kernels.FFTBatch(plan, dst.Data, int(a.HowMany)); err != nil {
		return err
	}
	return dst.Commit()
}

func reshpCore(s *phys.Space, a *ReshpArgs) error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("accel: RESHP: negative dimensions")
	}
	n := int(a.Rows * a.Cols)
	switch a.Elem {
	case ElemF32:
		if a.Src == a.Dst && a.Rows == a.Cols {
			// Square in-place transpose, directly on the view. Non-square
			// exact aliases take the general path below, where the overlap
			// snapshot preserves copy semantics.
			data, err := s.ViewFloat32s(a.Src, n)
			if err != nil {
				return fmt.Errorf("accel: RESHP src: %w", err)
			}
			if err := kernels.TransposeInPlace(int(a.Rows), data.Data); err != nil {
				return err
			}
			return data.Commit()
		}
		src, err := s.ViewFloat32s(a.Src, n)
		if err != nil {
			return fmt.Errorf("accel: RESHP src: %w", err)
		}
		dst, err := s.ViewFloat32s(a.Dst, n)
		if err != nil {
			return fmt.Errorf("accel: RESHP dst: %w", err)
		}
		ss := src.Data
		if src.Aliased() && dst.Aliased() && overlaps(a.Src, 4*int64(n), a.Dst, 4*int64(n)) {
			p := getF32(n)
			defer f32Scratch.Put(p)
			copy(*p, src.Data)
			ss = *p
		}
		if err := kernels.Transpose(int(a.Rows), int(a.Cols), ss, dst.Data); err != nil {
			return err
		}
		return dst.Commit()
	case ElemC64:
		r, c := int(a.Rows), int(a.Cols)
		if a.Src == a.Dst && r == c {
			data, err := s.ViewComplex64s(a.Src, n)
			if err != nil {
				return fmt.Errorf("accel: RESHP src: %w", err)
			}
			d := data.Data
			for i := 0; i < r; i++ {
				for j := i + 1; j < c; j++ {
					d[i*c+j], d[j*r+i] = d[j*r+i], d[i*c+j]
				}
			}
			return data.Commit()
		}
		src, err := s.ViewComplex64s(a.Src, n)
		if err != nil {
			return fmt.Errorf("accel: RESHP src: %w", err)
		}
		dst, err := s.ViewComplex64s(a.Dst, n)
		if err != nil {
			return fmt.Errorf("accel: RESHP dst: %w", err)
		}
		ss := src.Data
		if src.Aliased() && dst.Aliased() && overlaps(a.Src, 8*int64(n), a.Dst, 8*int64(n)) {
			p := getC64(n)
			defer c64Scratch.Put(p)
			copy(*p, src.Data)
			ss = *p
		}
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				dst.Data[j*r+i] = ss[i*c+j]
			}
		}
		return dst.Commit()
	default:
		return fmt.Errorf("accel: RESHP: unknown element kind %d", a.Elem)
	}
}
