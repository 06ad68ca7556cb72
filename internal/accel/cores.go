package accel

import (
	"fmt"
	"sync"

	"mealib/internal/kernels"
	"mealib/internal/phys"
)

// The cores operate on zero-copy views of the simulated DRAM
// (phys.ViewOf): an aliased view writes the space in place, with no
// copy-out/copy-back round trip per invocation. Kernels that genuinely need
// out-of-place scratch (an exact-aliased RESMP, an out-of-place transpose
// onto an overlapping span) draw it from one pool of 32-bit words, the
// layout every element type shares, so steady-state invocations allocate
// nothing.
var scratch = sync.Pool{New: func() any { return new([]uint32) }}

// scratchCopy copies v into scratch borrowed from the pool; the caller puts p
// back once it is done with the copy.
func scratchCopy[T phys.Elem](v []T) (p *[]uint32, c []T) {
	p = scratch.Get().(*[]uint32)
	c = phys.Scratch[T](p, len(v))
	copy(c, v)
	return p, c
}

// vecLen returns the number of elements a strided vector touches.
func vecLen(n, inc int64) int { return int(elems(n, inc, 1)) }

func axpyCore(s *phys.Space, a *AxpyArgs) error {
	if a.N < 0 {
		return fmt.Errorf("accel: AXPY: negative n %d", a.N)
	}
	nx, ny := vecLen(a.N, a.IncX), vecLen(a.N, a.IncY)
	x, err := phys.ViewOf[float32](s, a.X, nx)
	if err != nil {
		return fmt.Errorf("accel: AXPY x: %w", err)
	}
	y, err := phys.ViewOf[float32](s, a.Y, ny)
	if err != nil {
		return fmt.Errorf("accel: AXPY y: %w", err)
	}
	xs := x.Data
	// If both views alias DRAM and the spans overlap, copy x first so the
	// streaming semantics (x fully read before y is stored) are preserved.
	if phys.Overlap(x, y) {
		p, c := scratchCopy(x.Data)
		defer scratch.Put(p)
		xs = c
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
		x, err := phys.ViewOf[complex64](s, a.X, vecLen(a.N, a.IncX))
		if err != nil {
			return fmt.Errorf("accel: DOT x: %w", err)
		}
		y, err := phys.ViewOf[complex64](s, a.Y, vecLen(a.N, a.IncY))
		if err != nil {
			return fmt.Errorf("accel: DOT y: %w", err)
		}
		r, err := kernels.Cdotc(int(a.N), x.Data, int(a.IncX), y.Data, int(a.IncY))
		if err != nil {
			return err
		}
		return s.WriteComplex64(a.Out, r)
	}
	x, err := phys.ViewOf[float32](s, a.X, vecLen(a.N, a.IncX))
	if err != nil {
		return fmt.Errorf("accel: DOT x: %w", err)
	}
	y, err := phys.ViewOf[float32](s, a.Y, vecLen(a.N, a.IncY))
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
	mat, err := phys.ViewOf[float32](s, a.A, matLen)
	if err != nil {
		return fmt.Errorf("accel: GEMV A: %w", err)
	}
	x, err := phys.ViewOf[float32](s, a.X, int(a.N))
	if err != nil {
		return fmt.Errorf("accel: GEMV x: %w", err)
	}
	y, err := phys.ViewOf[float32](s, a.Y, int(a.M))
	if err != nil {
		return fmt.Errorf("accel: GEMV y: %w", err)
	}
	// y is written row by row while A and x are still being read: snapshot
	// any aliased read operand the y span overlaps.
	ms, xs := mat.Data, x.Data
	if phys.Overlap(y, mat) {
		p, c := scratchCopy(mat.Data)
		defer scratch.Put(p)
		ms = c
	}
	if phys.Overlap(y, x) {
		p, c := scratchCopy(x.Data)
		defer scratch.Put(p)
		xs = c
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
	rowPtr, err := phys.ViewOf[int32](s, a.RowPtr, int(a.M)+1)
	if err != nil {
		return fmt.Errorf("accel: SPMV rowPtr: %w", err)
	}
	colIdx, err := phys.ViewOf[int32](s, a.ColIdx, int(a.NNZ))
	if err != nil {
		return fmt.Errorf("accel: SPMV colIdx: %w", err)
	}
	values, err := phys.ViewOf[float32](s, a.Values, int(a.NNZ))
	if err != nil {
		return fmt.Errorf("accel: SPMV values: %w", err)
	}
	x, err := phys.ViewOf[float32](s, a.X, int(a.Cols))
	if err != nil {
		return fmt.Errorf("accel: SPMV x: %w", err)
	}
	y, err := phys.ViewOf[float32](s, a.Y, int(a.M))
	if err != nil {
		return fmt.Errorf("accel: SPMV y: %w", err)
	}
	// The gather vector is the only read operand whose elements are revisited
	// while y is written; snapshot it if y aliases over it.
	xs := x.Data
	if phys.Overlap(y, x) {
		p, c := scratchCopy(x.Data)
		defer scratch.Put(p)
		xs = c
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
		src, err := phys.ViewOf[complex64](s, a.Src, int(a.NIn))
		if err != nil {
			return fmt.Errorf("accel: RESMP src: %w", err)
		}
		dst, err := phys.ViewOf[complex64](s, a.Dst, int(a.NOut))
		if err != nil {
			return fmt.Errorf("accel: RESMP dst: %w", err)
		}
		ss := src.Data
		if phys.Overlap(src, dst) {
			p, c := scratchCopy(src.Data)
			defer scratch.Put(p)
			ss = c
		}
		if err := kernels.ResampleC64(ss, dst.Data, kernels.InterpKind(a.Kind-ResmpComplex)); err != nil {
			return err
		}
		return dst.Commit()
	}
	src, err := phys.ViewOf[float32](s, a.Src, int(a.NIn))
	if err != nil {
		return fmt.Errorf("accel: RESMP src: %w", err)
	}
	dst, err := phys.ViewOf[float32](s, a.Dst, int(a.NOut))
	if err != nil {
		return fmt.Errorf("accel: RESMP dst: %w", err)
	}
	ss := src.Data
	if phys.Overlap(src, dst) {
		p, c := scratchCopy(src.Data)
		defer scratch.Put(p)
		ss = c
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
	dst, err := phys.ViewOf[complex64](s, a.Dst, total)
	if err != nil {
		return fmt.Errorf("accel: FFT dst: %w", err)
	}
	if a.Src != a.Dst {
		src, err := phys.ViewOf[complex64](s, a.Src, total)
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
	switch a.Elem {
	case ElemF32:
		return reshp[float32](s, a)
	case ElemC64:
		return reshp[complex64](s, a)
	}
	return fmt.Errorf("accel: RESHP: unknown element kind %d", a.Elem)
}

// reshp transposes a Rows x Cols matrix of T; a transpose only moves
// elements, so one body serves every element kind.
func reshp[T phys.Elem](s *phys.Space, a *ReshpArgs) error {
	n := int(a.Rows * a.Cols)
	if a.Src == a.Dst && a.Rows == a.Cols {
		// Square in-place transpose, directly on the view. Non-square exact
		// aliases take the general path below, where the overlap snapshot
		// preserves copy semantics.
		data, err := phys.ViewOf[T](s, a.Src, n)
		if err != nil {
			return fmt.Errorf("accel: RESHP src: %w", err)
		}
		if err := kernels.TransposeInPlace(int(a.Rows), data.Data); err != nil {
			return err
		}
		return data.Commit()
	}
	src, err := phys.ViewOf[T](s, a.Src, n)
	if err != nil {
		return fmt.Errorf("accel: RESHP src: %w", err)
	}
	dst, err := phys.ViewOf[T](s, a.Dst, n)
	if err != nil {
		return fmt.Errorf("accel: RESHP dst: %w", err)
	}
	ss := src.Data
	if phys.Overlap(src, dst) {
		p, c := scratchCopy(src.Data)
		defer scratch.Put(p)
		ss = c
	}
	if err := kernels.Transpose(int(a.Rows), int(a.Cols), ss, dst.Data); err != nil {
		return err
	}
	return dst.Commit()
}
