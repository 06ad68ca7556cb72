package accel

import (
	"fmt"
	"sync"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/span"
)

// This file holds the typed argument structs of the accelerators — the
// constructors producers build parameter blocks with — and Args, the bound
// view of a block the rest of the layer reads through. A block is the head
// fields of the op table's schema (optable.go) followed by one Strides block
// per strided address field: the per-iteration address strides the compiler
// derives from OpenMP loops so a single LOOP-block descriptor can cover
// millions of library calls (paper §2.2-2.3, §3.4).

// Strides holds the per-level byte strides of one buffer across a hardware
// loop nest (span.Strides). A plain single loop uses Lin.
type Strides = span.Strides

// Lin builds single-level strides (the innermost level advances by s bytes
// per iteration).
func Lin(s int64) Strides {
	var st Strides
	st[descriptor.MaxLoopLevels-1] = s
	return st
}

// IterVec is the current index of each loop-nest level, outermost first.
type IterVec = span.IterVec

// Args is one invocation's parameter block bound to its accelerator's entry
// in the op table: field access by schema position, with no copy and no
// up-front decode. The zero Args is unbound.
type Args struct {
	spec *opSpec
	p    descriptor.Params
}

// specOf looks op up in the op table.
func specOf(op descriptor.OpCode) (*opSpec, error) {
	if int(op) >= len(specs) || specs[op] == nil {
		return nil, fmt.Errorf("accel: no accelerator for opcode %v", op)
	}
	return specs[op], nil
}

// Bind looks op up in the op table and checks the block's field count.
func Bind(op descriptor.OpCode, p descriptor.Params) (Args, error) {
	s, err := specOf(op)
	if err != nil {
		return Args{}, err
	}
	if len(p) != s.nparams {
		return Args{}, fmt.Errorf("accel: %v expects %d parameter fields, got %d", op, s.nparams, len(p))
	}
	return Args{spec: s, p: p}, nil
}

// Assemble lays out a parameter block from positional head-field values:
// head fields the caller does not supply are zero (SPMV's Semiring and Bias
// default to the plain y = A*x), and every strided address field gets the
// Strides block strides returns for its position.
func Assemble(op descriptor.OpCode, head []uint64, strides func(field int) Strides) (descriptor.Params, error) {
	s, err := specOf(op)
	if err != nil {
		return nil, err
	}
	if len(head) > len(s.fields) {
		return nil, fmt.Errorf("accel: %v takes %d head fields, got %d", op, len(s.fields), len(head))
	}
	p := make(descriptor.Params, s.nparams)
	copy(p, head)
	for f, off := range s.strideOff {
		if off > 0 {
			for l, v := range strides(f) {
				p[off+l] = uint64(v)
			}
		}
	}
	return p, nil
}

// i reads head field f as a signed integer (BLAS increments may be negative).
func (a Args) i(f int) int64 { return int64(a.p[f]) }

func (a Args) f32(f int) float32 { return descriptor.F32Of(a.p[f]) }

// strides returns address field f's per-level strides (zero when the schema
// gives the field none).
func (a Args) strides(f int) Strides {
	var s Strides
	if off := a.spec.strideOff[f]; off > 0 {
		for l := range s {
			s[l] = int64(a.p[off+l])
		}
	}
	return s
}

// at returns address field f advanced to LOOP iteration vector it.
func (a Args) at(f int, it IterVec) phys.Addr {
	return descriptor.AddrOf(a.p[f]) + phys.Addr(a.strides(f).Offset(it))
}

// decode fills the field slots of a typed argument struct (head fields, then
// stride blocks, in parameter order) from the block, with every address
// advanced to iteration it.
func (a Args) decode(slots []any, it IterVec) {
	next := len(a.spec.fields) // next stride block
	for f, slot := range slots {
		switch v := slot.(type) {
		case *int64:
			*v = a.i(f)
		case *bool:
			*v = a.p[f] != 0
		case *ElemKind:
			*v = ElemKind(a.i(f))
		case *float32:
			*v = a.f32(f)
		case *phys.Addr:
			*v = a.at(f, it)
		case *Strides:
			for l := range v {
				v[l] = int64(a.p[next+l])
			}
			next += len(v)
		}
	}
}

// encode is decode's inverse: the parameter block of a typed struct's slots.
func encode(slots []any) descriptor.Params {
	n := len(slots)
	for _, slot := range slots {
		if _, ok := slot.(*Strides); ok {
			n += descriptor.MaxLoopLevels - 1
		}
	}
	p := make(descriptor.Params, 0, n)
	for _, slot := range slots {
		switch v := slot.(type) {
		case *int64:
			p = append(p, uint64(*v))
		case *bool:
			var b uint64
			if *v {
				b = 1
			}
			p = append(p, b)
		case *ElemKind:
			p = append(p, uint64(*v))
		case *float32:
			p = append(p, descriptor.F32Field(*v))
		case *phys.Addr:
			p = append(p, descriptor.AddrField(*v))
		case *Strides:
			for _, s := range v {
				p = append(p, uint64(s))
			}
		}
	}
	return p
}

// nextIter advances it to the following iteration of a nest of counts, like
// an odometer.
func nextIter(it *IterVec, counts *descriptor.LoopCounts) {
	l := descriptor.MaxLoopLevels - 1
	for ; l > 0 && it[l]+1 >= max(int64(counts[l]), 1); l-- {
		it[l] = 0
	}
	it[l]++
}

// maxBlock is the most instances of a range one block holds: a bit each in
// iters.failed.
const maxBlock = 64

// iters is a block of a range for a comp's run entry: n iterations of a nest
// of counts from it. An instance a comp failed has its bit set in failed and
// runs no more; err is what the first failed instance, at, failed with.
type iters struct {
	it     IterVec
	counts descriptor.LoopCounts
	n, at  int
	failed uint64
	err    error
}

// entry is how the layer runs an accelerator's core (ranged). decode turns a
// bound block into what run takes, once per template: the core's typed struct
// at iteration zero. run executes a block of iterations of the comp.
type entry struct {
	decode func(a Args) any
	run    func(s *phys.Space, c *boundComp, b iters) iters
}

// ranged is the entry of an accelerator whose core executes a *T: the block is
// decoded into a T once, when its template is built. One instance at
// iteration zero runs on that T itself, so no core may write its *T (the
// differential matrix compares every compiled program's decoded structs
// before and after its launches). Any other block copies it into a pooled T,
// since a block runs on whichever worker claims it, and steps the iteration
// like an odometer, moving only the copy's addresses. The core still checks
// every call.
func ranged[T any, P typed[T]](core func(*phys.Space, *T) error) entry {
	var fields []int // the address slots
	for f, slot := range P(new(T)).slots() {
		if _, ok := slot.(*phys.Addr); ok {
			fields = append(fields, f)
		}
	}
	// moved is a T whose addresses a block advances, its address fields, and
	// each one's base and strides.
	type moved struct {
		t       T
		addrs   []*phys.Addr
		base    []phys.Addr
		strides []Strides
	}
	pool := sync.Pool{New: func() any {
		m := &moved{base: make([]phys.Addr, len(fields)), strides: make([]Strides, len(fields))}
		slots := P(&m.t).slots()
		for _, f := range fields {
			m.addrs = append(m.addrs, slots[f].(*phys.Addr))
		}
		return m
	}}
	// decode goes through one T whose slots are laid out once, under a lock:
	// laying them out afresh would cost every compiled comp an allocation,
	// which TestInstallFixedCost's bounds have no room for.
	var mu sync.Mutex
	var scratch T
	slots := P(&scratch).slots()
	return entry{
		decode: func(a Args) any {
			mu.Lock()
			defer mu.Unlock()
			a.decode(slots, IterVec{})
			t := new(T)
			*t = scratch
			return t
		},
		run: func(s *phys.Space, c *boundComp, b iters) iters {
			t := c.typed.(*T)
			var m *moved
			if b.n > 1 || b.it != (IterVec{}) {
				m = pool.Get().(*moved)
				m.t = *t
				for i, f := range fields {
					m.base[i], m.strides[i] = descriptor.AddrOf(c.p[f]), c.strides(f)
				}
				t = &m.t
			}
			for j, it := 0, b.it; j < b.n; j++ {
				if j > 0 {
					nextIter(&it, &b.counts)
				}
				if m != nil {
					for i, addr := range m.addrs {
						*addr = m.base[i] + phys.Addr(m.strides[i].Offset(it))
					}
				}
				if b.failed&(1<<j) != 0 {
					continue
				}
				if err := core(s, t); err != nil {
					b.failed |= 1 << j
					if b.err == nil || j < b.at {
						b.at, b.err = j, err
					}
				}
			}
			if m != nil {
				pool.Put(m)
			}
			return b
		},
	}
}

// typed is a typed argument struct's pointer, which lays out its fields.
type typed[T any] interface {
	*T
	slots() []any
}

// decodeTyped binds p to op and decodes it into a T at iteration zero.
func decodeTyped[T any, P typed[T]](op descriptor.OpCode, p descriptor.Params) (t T, err error) {
	a, err := Bind(op, p)
	if err == nil {
		a.decode(P(&t).slots(), IterVec{})
	}
	return t, err
}

// AxpyArgs configures the AXPY accelerator (cblas_saxpy).
type AxpyArgs struct {
	N          int64
	Alpha      float32
	X, Y       phys.Addr
	IncX, IncY int64
	// LoopStride* advance the buffer base per LOOP nest level (bytes).
	LoopStrideX, LoopStrideY Strides
}

func (a *AxpyArgs) slots() []any {
	return []any{&a.N, &a.Alpha, &a.X, &a.Y, &a.IncX, &a.IncY, &a.LoopStrideX, &a.LoopStrideY}
}

// Params encodes the argument block.
func (a AxpyArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeAxpyArgs decodes an AXPY argument block.
func DecodeAxpyArgs(p descriptor.Params) (AxpyArgs, error) {
	return decodeTyped[AxpyArgs](descriptor.OpAXPY, p)
}

// DotArgs configures the DOT accelerator (cblas_sdot and, with Complex set,
// cblas_cdotc_sub; the paper maps both onto the DOT accelerator).
type DotArgs struct {
	N                                       int64
	Complex                                 bool
	X, Y, Out                               phys.Addr
	IncX, IncY                              int64
	LoopStrideX, LoopStrideY, LoopStrideOut Strides
}

func (a *DotArgs) slots() []any {
	return []any{&a.N, &a.Complex, &a.X, &a.Y, &a.Out, &a.IncX, &a.IncY,
		&a.LoopStrideX, &a.LoopStrideY, &a.LoopStrideOut}
}

// Params encodes the argument block.
func (a DotArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeDotArgs decodes a DOT argument block.
func DecodeDotArgs(p descriptor.Params) (DotArgs, error) {
	return decodeTyped[DotArgs](descriptor.OpDOT, p)
}

// GemvArgs configures the GEMV accelerator (cblas_sgemv, row major,
// no-transpose).
type GemvArgs struct {
	M, N        int64
	Alpha, Beta float32
	A           phys.Addr
	Lda         int64
	X, Y        phys.Addr
	// LoopStride* advance the operands per LOOP nest level (batched GEMV).
	LoopStrideA, LoopStrideX, LoopStrideY Strides
}

func (a *GemvArgs) slots() []any {
	return []any{&a.M, &a.N, &a.Alpha, &a.Beta, &a.A, &a.Lda, &a.X, &a.Y,
		&a.LoopStrideA, &a.LoopStrideX, &a.LoopStrideY}
}

// Params encodes the argument block.
func (a GemvArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeGemvArgs decodes a GEMV argument block.
func DecodeGemvArgs(p descriptor.Params) (GemvArgs, error) {
	return decodeTyped[GemvArgs](descriptor.OpGEMV, p)
}

// SPMV semiring selectors (kernels.SemiringPlusTimes / SemiringMinPlus).
// The zero value is the ordinary arithmetic SpMV, so descriptors from older
// producers keep their meaning.
const (
	SpmvPlusTimes = kernels.SemiringPlusTimes
	SpmvMinPlus   = kernels.SemiringMinPlus
)

// SpmvArgs configures the SPMV accelerator (mkl_scsrgemv, zero-based CSR).
// Semiring selects the accumulation algebra and Bias seeds each row's
// accumulator (graph workloads fold their elementwise update into it:
// PageRank's teleport term under plus-times, the previous distance under
// min-plus). Zero Semiring and Bias reproduce the original y = A*x exactly.
type SpmvArgs struct {
	M, Cols, NNZ           int64
	RowPtr, ColIdx, Values phys.Addr
	X, Y                   phys.Addr
	Semiring               int64
	Bias                   float32
}

func (a *SpmvArgs) slots() []any {
	return []any{&a.M, &a.Cols, &a.NNZ, &a.RowPtr, &a.ColIdx, &a.Values, &a.X, &a.Y, &a.Semiring, &a.Bias}
}

// Params encodes the argument block.
func (a SpmvArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeSpmvArgs decodes an SPMV argument block.
func DecodeSpmvArgs(p descriptor.Params) (SpmvArgs, error) {
	return decodeTyped[SpmvArgs](descriptor.OpSPMV, p)
}

// Resampling kinds accepted by ResmpArgs.Kind: values 0/1 are
// kernels.InterpLinear/InterpCubic over float32 data; adding ResmpComplex
// selects complex64 data (real and imaginary parts interpolated
// independently).
const ResmpComplex int64 = 2

// ResmpArgs configures the RESMP accelerator (dfsInterpolate1D).
type ResmpArgs struct {
	NIn, NOut                    int64
	Kind                         int64 // kernels.InterpKind
	Src, Dst                     phys.Addr
	LoopStrideSrc, LoopStrideDst Strides
}

func (a *ResmpArgs) slots() []any {
	return []any{&a.NIn, &a.NOut, &a.Kind, &a.Src, &a.Dst, &a.LoopStrideSrc, &a.LoopStrideDst}
}

// Params encodes the argument block.
func (a ResmpArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeResmpArgs decodes a RESMP argument block.
func DecodeResmpArgs(p descriptor.Params) (ResmpArgs, error) {
	return decodeTyped[ResmpArgs](descriptor.OpRESMP, p)
}

// FFTArgs configures the FFT accelerator (fftwf_execute on a guru plan:
// batched 1-D complex transforms, optionally out of place).
type FFTArgs struct {
	N                            int64
	Inverse                      bool
	HowMany                      int64
	Src, Dst                     phys.Addr // Dst == Src for in-place
	LoopStrideSrc, LoopStrideDst Strides
}

func (a *FFTArgs) slots() []any {
	return []any{&a.N, &a.Inverse, &a.HowMany, &a.Src, &a.Dst, &a.LoopStrideSrc, &a.LoopStrideDst}
}

// Params encodes the argument block.
func (a FFTArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeFFTArgs decodes an FFT argument block.
func DecodeFFTArgs(p descriptor.Params) (FFTArgs, error) {
	return decodeTyped[FFTArgs](descriptor.OpFFT, p)
}

// ElemKind selects the element type of a RESHP operation.
type ElemKind int64

// Element kinds.
const (
	ElemF32 ElemKind = iota
	ElemC64
)

// ReshpArgs configures the RESHP data-reshape engine (mkl_simatcopy and the
// FFTW guru data-copy the compiler maps to RESHP). Rows x Cols source,
// transposed into Dst; Dst == Src performs the square in-place transpose.
type ReshpArgs struct {
	Rows, Cols int64
	Elem       ElemKind
	Src, Dst   phys.Addr
}

func (a *ReshpArgs) slots() []any {
	return []any{&a.Rows, &a.Cols, &a.Elem, &a.Src, &a.Dst}
}

// Params encodes the argument block.
func (a ReshpArgs) Params() descriptor.Params { return encode(a.slots()) }

// DecodeReshpArgs decodes a RESHP argument block.
func DecodeReshpArgs(p descriptor.Params) (ReshpArgs, error) {
	return decodeTyped[ReshpArgs](descriptor.OpRESHP, p)
}
