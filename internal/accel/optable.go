package accel

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// The op table: every accelerator of the layer (paper §2.2: seven
// fixed-function cores behind one descriptor format) declared once. An entry
// states the parameter-block schema, the memory operands with their affine
// extents and directions, the input checks, the flop count, the core, and
// how an oversized invocation may be split. Everything else that needs to
// know what an opcode is — plan lowering, dependence edges, fusion legality,
// out-of-core shift/rebase/split, the work and locality models (operand.go),
// the static verifier (tdlcheck) and the C compiler's argument binder
// (ccompiler) — derives it from here. Adding an accelerator is one entry
// plus its kernel; see DESIGN.md "Adding an accelerator".

// fieldKind classifies one head field of a parameter block.
type fieldKind uint8

const (
	fInt     fieldKind = iota // signed integer: sizes, increments, selectors, flags
	fF32                      // float32 scalar
	fAddr                     // physical address, fixed across LOOP iterations
	fStrided                  // physical address with a Strides block in the tail
)

// access is the direction an operand is streamed in.
type access uint8

const (
	accRead access = 1 << iota
	accWrite
)

// extent is an operand size in elements, in the affine form
// (n-1)*|step| + tail (nothing when n <= 0). One form covers strided
// vectors, lda matrices, batches and the M+1 row pointers, and lets the
// runtime evaluate it in int64 while the verifier proves the same terms in
// exact arithmetic.
type extent func(a Args) (n, step, tail int64)

// vec is a BLAS vector of field n elements at increment field inc.
func vec(n, inc int) extent {
	return func(a Args) (int64, int64, int64) { return a.i(n), a.i(inc), 1 }
}

// lin is field n contiguous elements.
func lin(n int) extent {
	return func(a Args) (int64, int64, int64) { return a.i(n), 1, 1 }
}

// mat is field rows rows of field cols elements at leading dimension ld.
func mat(rows, ld, cols int) extent {
	return func(a Args) (int64, int64, int64) { return a.i(rows), a.i(ld), a.i(cols) }
}

// operandSpec declares one memory operand of an accelerator.
type operandSpec struct {
	name string
	// addr is the head field holding the base address.
	addr int
	// footprint is the bytes the operand may touch, in elements.
	footprint extent
	// acc is the directions the datapath streams the operand in; readIf, when
	// set, narrows the read to the invocations that really consume the old
	// contents (GEMV y is write-only when beta == 0). The traffic model
	// charges the declared directions regardless.
	acc    access
	readIf func(a Args) bool
	// traffic is the elements streamed when that differs from the footprint,
	// and random marks them latency-bound: SPMV gathers NNZ elements of x
	// scattered over its Cols-element footprint.
	traffic extent
	random  bool
	// step is how many elements the operand advances per unit of the spec's
	// chunk axis (nil: every split piece sees the whole operand).
	step func(a Args) int64
}

// chunkAxis lets the out-of-core chunker split one oversized invocation into
// exact pieces along a count field whose outputs are elementwise
// independent.
type chunkAxis struct {
	// count is the head field the axis divides.
	count int
	// per returns how many units of the axis one piece takes, given the piece
	// count the footprint suggests and the staging budget of one piece, or
	// ErrUnchunkable when this invocation cannot be split.
	per func(a Args, pieces int64, budget units.Bytes) (int64, error)
}

// opSpec is one accelerator.
type opSpec struct {
	// fields is the head of the parameter block; every fStrided field owns one
	// Strides block in the tail, in field order.
	fields []fieldKind
	// elem is the element size in bytes: the unit of every extent and the
	// alignment every operand address must have.
	elem     func(a Args) int64
	operands []operandSpec
	// validate holds the input checks the static verifier runs before trusting
	// the operands (sizes, increments, selectors).
	validate func(a Args) error
	// flops is nil for pure data movement.
	flops func(a Args) units.Flops
	// run executes the invocation over a block of iterations (ranged).
	run func(s *phys.Space, a Args, b iters) iters
	// chunk is nil when the op has no exact split (reductions, global-access
	// ops, boundary-coupled interpolation).
	chunk *chunkAxis

	// Derived by newSpec: the parameter count, each field's Strides offset
	// (0: none) and the most directional spans one invocation emits.
	nparams   int
	strideOff []int
	maxSpans  int
}

func newSpec(s opSpec) *opSpec {
	s.nparams = len(s.fields)
	s.strideOff = make([]int, len(s.fields))
	s.maxSpans = len(s.operands)
	for i := range s.operands {
		if s.operands[i].acc == accRead|accWrite {
			s.maxSpans++
		}
	}
	for f, k := range s.fields {
		if k == fStrided {
			s.strideOff[f] = s.nparams
			s.nparams += descriptor.MaxLoopLevels
		}
	}
	return &s
}

func f32Elems(Args) int64 { return 4 }
func c64Elems(Args) int64 { return 8 }

// wideIf is a 4-byte element that widens to 8 when the selector holds.
func wideIf(sel func(a Args) bool) func(Args) int64 {
	return func(a Args) int64 {
		if sel(a) {
			return 8
		}
		return 4
	}
}

func fieldOf(f int) func(Args) int64 { return func(a Args) int64 { return a.i(f) } }
func unitStep(Args) int64            { return 1 }

// Head-field positions, in the order the typed constructors in args.go emit
// them.
const (
	axN, axAlpha, axX, axY, axIncX, axIncY                     = 0, 1, 2, 3, 4, 5
	dtN, dtComplex, dtX, dtY, dtOut, dtIncX, dtIncY            = 0, 1, 2, 3, 4, 5, 6
	gvM, gvN, gvAlpha, gvBeta, gvA, gvLda, gvX, gvY            = 0, 1, 2, 3, 4, 5, 6, 7
	spM, spCols, spNNZ, spRowPtr, spColIdx, spValues, spX, spY = 0, 1, 2, 3, 4, 5, 6, 7
	spSemiring, spBias                                         = 8, 9
	rsNIn, rsNOut, rsKind, rsSrc, rsDst                        = 0, 1, 2, 3, 4
	ffN, ffInverse, ffHowMany, ffSrc, ffDst                    = 0, 1, 2, 3, 4
	rhRows, rhCols, rhElem, rhSrc, rhDst                       = 0, 1, 2, 3, 4
)

// specs is the table, indexed by opcode. Only tests ever replace an entry.
var specs = [...]*opSpec{
	descriptor.OpAXPY: newSpec(opSpec{
		fields: []fieldKind{fInt, fF32, fStrided, fStrided, fInt, fInt},
		elem:   f32Elems,
		operands: []operandSpec{
			{name: "x", addr: axX, footprint: vec(axN, axIncX), acc: accRead, step: fieldOf(axIncX)},
			{name: "y", addr: axY, footprint: vec(axN, axIncY), acc: accRead | accWrite, step: fieldOf(axIncY)},
		},
		validate: func(a Args) error {
			switch n, incX, incY := a.i(axN), a.i(axIncX), a.i(axIncY); {
			case n <= 0:
				return fmt.Errorf("AXPY: non-positive vector length N=%d", n)
			case incX == 0 || incY == 0:
				return fmt.Errorf("AXPY: zero vector increment (incX=%d incY=%d)", incX, incY)
			}
			return nil
		},
		flops: func(a Args) units.Flops { return kernels.SaxpyFlops(int(a.i(axN))) },
		run:   ranged(axpyCore),
		// By vector range.
		chunk: &chunkAxis{count: axN, per: func(a Args, pieces int64, _ units.Bytes) (int64, error) {
			n, incX, incY := a.i(axN), a.i(axIncX), a.i(axIncY)
			if incX <= 0 || incY <= 0 || n < pieces {
				return 0, fmt.Errorf("%w: AXPY with n=%d incx=%d incy=%d", ErrUnchunkable, n, incX, incY)
			}
			return (n + pieces - 1) / pieces, nil
		}},
	}),

	descriptor.OpDOT: newSpec(opSpec{
		fields: []fieldKind{fInt, fInt, fStrided, fStrided, fStrided, fInt, fInt},
		elem:   wideIf(func(a Args) bool { return a.i(dtComplex) != 0 }),
		operands: []operandSpec{
			{name: "x", addr: dtX, footprint: vec(dtN, dtIncX), acc: accRead},
			{name: "y", addr: dtY, footprint: vec(dtN, dtIncY), acc: accRead},
			{name: "out", addr: dtOut, footprint: func(Args) (int64, int64, int64) { return 1, 0, 1 }, acc: accWrite},
		},
		validate: func(a Args) error {
			switch n, incX, incY := a.i(dtN), a.i(dtIncX), a.i(dtIncY); {
			case n <= 0:
				return fmt.Errorf("DOT: non-positive vector length N=%d", n)
			case incX == 0 || incY == 0:
				return fmt.Errorf("DOT: zero vector increment (incX=%d incY=%d)", incX, incY)
			}
			return nil
		},
		flops: func(a Args) units.Flops {
			if a.i(dtComplex) != 0 {
				return kernels.CdotcFlops(int(a.i(dtN)))
			}
			return kernels.SdotFlops(int(a.i(dtN)))
		},
		run: ranged(dotCore),
	}),

	descriptor.OpGEMV: newSpec(opSpec{
		fields: []fieldKind{fInt, fInt, fF32, fF32, fStrided, fInt, fStrided, fStrided},
		elem:   f32Elems,
		operands: []operandSpec{
			{name: "A", addr: gvA, footprint: mat(gvM, gvLda, gvN), acc: accRead, step: fieldOf(gvLda)},
			{name: "x", addr: gvX, footprint: lin(gvN), acc: accRead},
			{name: "y", addr: gvY, footprint: lin(gvM), acc: accRead | accWrite, step: unitStep,
				readIf: func(a Args) bool { return a.f32(gvBeta) != 0 }},
		},
		validate: func(a Args) error {
			switch m, n, lda := a.i(gvM), a.i(gvN), a.i(gvLda); {
			case m <= 0 || n <= 0:
				return fmt.Errorf("GEMV: non-positive matrix dimensions %dx%d", m, n)
			case lda < n:
				return fmt.Errorf("GEMV: leading dimension %d smaller than row length %d (operand size mismatch)", lda, n)
			}
			return nil
		},
		flops: func(a Args) units.Flops { return kernels.SgemvFlops(int(a.i(gvM)), int(a.i(gvN))) },
		run:   ranged(gemvCore),
		// By row block: every piece re-reads the full x vector; rows amortise
		// the rest.
		chunk: &chunkAxis{count: gvM, per: func(a Args, _ int64, budget units.Bytes) (int64, error) {
			m, n, lda := a.i(gvM), a.i(gvN), a.i(gvLda)
			if m < 2 || lda < n {
				return 0, fmt.Errorf("%w: GEMV with m=%d lda=%d n=%d", ErrUnchunkable, m, lda, n)
			}
			fixed, perRow := units.Bytes(4*n), units.Bytes(4*lda+4)
			if fixed+perRow > budget {
				return 0, fmt.Errorf("%w: one GEMV row (%v) exceeds the staging budget %v", ErrUnchunkable, fixed+perRow, budget)
			}
			return int64((budget - fixed) / perRow), nil
		}},
	}),

	descriptor.OpSPMV: newSpec(opSpec{
		fields: []fieldKind{fInt, fInt, fInt, fAddr, fAddr, fAddr, fAddr, fAddr, fInt, fF32},
		elem:   f32Elems,
		operands: []operandSpec{
			{name: "rowPtr", addr: spRowPtr, acc: accRead,
				footprint: func(a Args) (int64, int64, int64) { return 2, a.i(spM), 1 }}, // M+1
			{name: "colIdx", addr: spColIdx, footprint: lin(spNNZ), acc: accRead},
			{name: "values", addr: spValues, footprint: lin(spNNZ), acc: accRead},
			{name: "x", addr: spX, footprint: lin(spCols), traffic: lin(spNNZ), random: true, acc: accRead},
			{name: "y", addr: spY, footprint: lin(spM), acc: accWrite},
		},
		validate: func(a Args) error {
			switch m, cols, nnz, ring := a.i(spM), a.i(spCols), a.i(spNNZ), a.i(spSemiring); {
			case m <= 0 || cols <= 0:
				return fmt.Errorf("SPMV: non-positive matrix dimensions %dx%d", m, cols)
			case nnz < 0:
				return fmt.Errorf("SPMV: negative non-zero count %d", nnz)
			case ring != SpmvPlusTimes && ring != SpmvMinPlus:
				return fmt.Errorf("SPMV: unknown semiring %d", ring)
			}
			return nil
		},
		flops: func(a Args) units.Flops { return kernels.SpmvFlops(int(a.i(spNNZ))) },
		run:   ranged(spmvCore),
	}),

	descriptor.OpRESMP: newSpec(opSpec{
		fields: []fieldKind{fInt, fInt, fInt, fStrided, fStrided},
		elem:   wideIf(func(a Args) bool { return a.i(rsKind) >= ResmpComplex }),
		operands: []operandSpec{
			{name: "src", addr: rsSrc, footprint: lin(rsNIn), acc: accRead},
			{name: "dst", addr: rsDst, footprint: lin(rsNOut), acc: accWrite},
		},
		validate: func(a Args) error {
			switch nIn, nOut, kind := a.i(rsNIn), a.i(rsNOut), a.i(rsKind); {
			case kind < 0 || kind >= 2*ResmpComplex:
				return fmt.Errorf("RESMP: invalid interpolation kind %d", kind)
			case nIn < 2:
				return fmt.Errorf("RESMP: interpolation needs at least 2 input samples, got %d", nIn)
			case nOut <= 0:
				return fmt.Errorf("RESMP: non-positive output length %d", nOut)
			}
			return nil
		},
		flops: func(a Args) units.Flops {
			f := kernels.ResampleFlops(int(a.i(rsNOut)))
			if a.i(rsKind) >= ResmpComplex {
				f *= 2
			}
			return f
		},
		run: ranged(resmpCore),
	}),

	descriptor.OpFFT: newSpec(opSpec{
		fields: []fieldKind{fInt, fInt, fInt, fStrided, fStrided},
		elem:   c64Elems,
		operands: []operandSpec{
			{name: "src", addr: ffSrc, footprint: mat(ffHowMany, ffN, ffN), acc: accRead, step: fieldOf(ffN)},
			{name: "dst", addr: ffDst, footprint: mat(ffHowMany, ffN, ffN), acc: accWrite, step: fieldOf(ffN)},
		},
		validate: func(a Args) error {
			switch n, howMany := a.i(ffN), a.i(ffHowMany); {
			case n <= 0 || n&(n-1) != 0:
				return fmt.Errorf("FFT: transform length %d is not a power of two", n)
			case howMany <= 0:
				return fmt.Errorf("FFT: non-positive batch count %d", howMany)
			}
			return nil
		},
		flops: func(a Args) units.Flops {
			return units.Flops(float64(a.i(ffHowMany))) * kernels.FFTFlops(int(a.i(ffN)))
		},
		run: ranged(fftCore),
		// By batch.
		chunk: &chunkAxis{count: ffHowMany, per: func(a Args, _ int64, budget units.Bytes) (int64, error) {
			n := a.i(ffN)
			if a.i(ffHowMany) < 2 {
				return 0, fmt.Errorf("%w: single %d-point FFT exceeds the staging budget", ErrUnchunkable, n)
			}
			perBatch := units.Bytes(16 * n) // src + dst
			if a.p[ffDst] == a.p[ffSrc] {
				perBatch = units.Bytes(8 * n)
			}
			if perBatch > budget {
				return 0, fmt.Errorf("%w: one %d-point FFT batch (%v) exceeds the staging budget %v", ErrUnchunkable, n, perBatch, budget)
			}
			return int64(budget / perBatch), nil
		}},
	}),

	descriptor.OpRESHP: newSpec(opSpec{
		fields: []fieldKind{fInt, fInt, fInt, fAddr, fAddr},
		elem:   wideIf(func(a Args) bool { return ElemKind(a.i(rhElem)) == ElemC64 }),
		operands: []operandSpec{
			{name: "src", addr: rhSrc, footprint: mat(rhRows, rhCols, rhCols), acc: accRead},
			{name: "dst", addr: rhDst, footprint: mat(rhRows, rhCols, rhCols), acc: accWrite},
		},
		validate: func(a Args) error {
			switch rows, cols, kind := a.i(rhRows), a.i(rhCols), ElemKind(a.i(rhElem)); {
			case rows <= 0 || cols <= 0:
				return fmt.Errorf("RESHP: non-positive matrix dimensions %dx%d", rows, cols)
			case kind != ElemF32 && kind != ElemC64:
				return fmt.Errorf("RESHP: invalid element kind %d", kind)
			case a.p[rhSrc] == a.p[rhDst] && rows != cols:
				return fmt.Errorf("RESHP: in-place transpose requires a square matrix, got %dx%d", rows, cols)
			}
			return nil
		},
		run: ranged(reshpCore),
	}),
}
