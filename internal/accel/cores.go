package accel

import (
	"fmt"
	"math"
	"sync"

	"mealib/internal/descriptor"
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

// dotEntry is DOT's op-table entry: ranged(dotCore), with a block of more
// than one instance run by the block body (dotBlock) unless it declines.
// dotCore stays the reference: a block of one instance always runs it.
func dotEntry() entry {
	e := ranged(dotCore)
	run := e.run
	e.run = func(s *phys.Space, c *boundComp, b iters) iters {
		if b.n > 1 {
			if done, ok := dotBlock(s, c.typed.(*DotArgs), b); ok {
				return done
			}
		}
		return run(s, c, b)
	}
	return e
}

// dotBlock is DOT's block body. It runs the block's instances one after the
// other, as dotCore would from the template's a: each operand's hull over the
// block is resolved to one view, and every instance calls dotCore's kernel on
// subslices of the x and y views and stores its result through the out view.
// It declines (ok false) before it changes anything, for dotCore to run the
// block, on arguments dotCore fails on and on a hull whose view would not be
// the space itself.
func dotBlock(s *phys.Space, a *DotArgs, b iters) (_ iters, ok bool) {
	if a.N < 1 || a.IncX == 0 || a.IncY == 0 {
		return b, false
	}
	if a.Complex {
		return dotViews(s, a, b, kernels.Cdotc)
	}
	return dotViews(s, a, b, kernels.Sdot)
}

// dotViews is dotBlock over elements of T.
func dotViews[T phys.Elem](s *phys.Space, a *DotArgs, b iters, kernel func(n int, x []T, incX int, y []T, incY int) (T, error)) (iters, bool) {
	size := phys.Addr(phys.Size[T]())
	nx, ny := vecLen(a.N, a.IncX), vecLen(a.N, a.IncY)
	// An extent past an int's bytes (it overflowed) is dotCore's to refuse.
	if min(nx, ny) < 1 || max(nx, ny) > math.MaxInt/int(size) {
		return b, false
	}
	// Operands x, y and out: their bytes per instance, their addresses at the
	// block's instances (stepped by carries as the odometer moves), which must
	// lie a whole number of elements from the first's, and their hulls
	// [lo, hi+bytes).
	bytes := [3]phys.Addr{size * phys.Addr(nx), size * phys.Addr(ny), size}
	base, strides := [3]phys.Addr{a.X, a.Y, a.Out}, [3]*Strides{&a.LoopStrideX, &a.LoopStrideY, &a.LoopStrideOut}
	var at [3][maxBlock]phys.Addr
	var carry [3][descriptor.MaxLoopLevels]phys.Addr
	for o, st := range strides {
		at[o][0], carry[o] = base[o]+phys.Addr(st.Offset(b.it)), carries(st, &b.counts)
	}
	lo := [3]phys.Addr{at[0][0], at[1][0], at[2][0]}
	hi := lo
	for j, it := 1, b.it; j < b.n; j++ {
		l := nextIter(&it, &b.counts)
		for o := range at {
			p := at[o][j-1] + carry[o][l]
			if (p-at[o][0])%size != 0 {
				return b, false
			}
			at[o][j], lo[o], hi[o] = p, min(lo[o], p), max(hi[o], p)
		}
	}
	var views [3][]T
	for o := range views {
		var ok bool
		if views[o], ok = hullView[T](s, lo[o], hi[o], bytes[o]); !ok {
			return b, false
		}
	}
	for j := 0; j < b.n; j++ {
		if b.failed&(1<<j) != 0 {
			continue
		}
		x, y := int((at[0][j]-lo[0])/size), int((at[1][j]-lo[1])/size)
		r, err := kernel(int(a.N), views[0][x:x+nx], int(a.IncX), views[1][y:y+ny], int(a.IncY))
		if err != nil {
			b.failed |= 1 << j
			if b.err == nil || j < b.at {
				b.at, b.err = j, err
			}
			continue
		}
		views[2][(at[2][j]-lo[2])/size] = r
	}
	return b, true
}

// hullView returns the view of [lo, hi+n) if it is the space itself: inside
// one region and aligned. A hull that is not (across a region seam, not all
// mapped, misaligned, or wrapping the address space) gives false before
// anything is copied.
func hullView[T phys.Elem](s *phys.Space, lo, hi, n phys.Addr) ([]T, bool) {
	end := hi + n
	if end < hi || uint64(end-lo) > math.MaxInt || lo%4 != 0 {
		return nil, false
	}
	if _, err := s.ViewBytes(lo, int(end-lo)); err != nil {
		return nil, false
	}
	v, err := phys.ViewOf[T](s, lo, int(end-lo)/phys.Size[T]())
	// Only a view of the space itself overlaps itself.
	return v.Data, err == nil && phys.Overlap(v, v)
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
