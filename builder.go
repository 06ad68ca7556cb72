package mealib

import (
	"context"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

// Comp is one accelerator invocation inside a plan.
type Comp struct {
	op     descriptor.OpCode
	params descriptor.Params
	err    error
}

// Strides expresses per-loop-level buffer advancement in *elements*,
// outermost level first (up to four levels, matching the hardware LOOP).
type Strides []int

func (st Strides) bytesPerElem(elem int64) accel.Strides {
	var out accel.Strides
	off := len(out) - len(st)
	for i, v := range st {
		if off+i >= 0 {
			out[off+i] = int64(v) * elem
		}
	}
	return out
}

// SaxpyComp builds a strided AXPY invocation for use inside Pass/Loop.
func SaxpyComp(n int, alpha float32, x *Float32Buffer, y *Float32Buffer, xStride, yStride Strides) Comp {
	return Comp{op: descriptor.OpAXPY, params: accel.AxpyArgs{
		N: int64(n), Alpha: alpha, X: x.addr(0), Y: y.addr(0), IncX: 1, IncY: 1,
		LoopStrideX: xStride.bytesPerElem(4), LoopStrideY: yStride.bytesPerElem(4),
	}.Params()}
}

// CdotcComp builds a complex inner-product invocation. incY strides the y
// reads (the STAP snapshot access pattern).
func CdotcComp(n int, x, y, out *Complex64Buffer, incY int, xStride, yStride, outStride Strides) Comp {
	return Comp{op: descriptor.OpDOT, params: accel.DotArgs{
		N: int64(n), Complex: true,
		X: x.addr(0), Y: y.addr(0), Out: out.addr(0), IncX: 1, IncY: int64(incY),
		LoopStrideX:   xStride.bytesPerElem(8),
		LoopStrideY:   yStride.bytesPerElem(8),
		LoopStrideOut: outStride.bytesPerElem(8),
	}.Params()}
}

// FFTComp builds a batched FFT invocation.
func FFTComp(n, howMany int, data *Complex64Buffer, inverse bool, stride Strides) Comp {
	s := stride.bytesPerElem(8)
	return Comp{op: descriptor.OpFFT, params: accel.FFTArgs{
		N: int64(n), Inverse: inverse, HowMany: int64(howMany),
		Src: data.addr(0), Dst: data.addr(0),
		LoopStrideSrc: s, LoopStrideDst: s,
	}.Params()}
}

// FFTCompInto is FFTComp with distinct source and destination buffers.
func FFTCompInto(n, howMany int, src, dst *Complex64Buffer, inverse bool, stride Strides) Comp {
	s := stride.bytesPerElem(8)
	return Comp{op: descriptor.OpFFT, params: accel.FFTArgs{
		N: int64(n), Inverse: inverse, HowMany: int64(howMany),
		Src: src.addr(0), Dst: dst.addr(0),
		LoopStrideSrc: s, LoopStrideDst: s,
	}.Params()}
}

// ResampleComp builds a resampling invocation (complex=false interprets the
// buffers as float32 data laid out in the complex buffer's space).
func ResampleC64Comp(nIn, nOut int, src, dst *Complex64Buffer, cubic bool, srcStride, dstStride Strides) Comp {
	kind := accel.ResmpComplex + int64(kernels.InterpLinear)
	if cubic {
		kind = accel.ResmpComplex + int64(kernels.InterpCubic)
	}
	return Comp{op: descriptor.OpRESMP, params: accel.ResmpArgs{
		NIn: int64(nIn), NOut: int64(nOut), Kind: kind,
		Src: src.addr(0), Dst: dst.addr(0),
		LoopStrideSrc: srcStride.bytesPerElem(8), LoopStrideDst: dstStride.bytesPerElem(8),
	}.Params()}
}

// TransposeC64Comp builds a complex reshape invocation.
func TransposeC64Comp(rows, cols int, src, dst *Complex64Buffer) Comp {
	return Comp{op: descriptor.OpRESHP, params: accel.ReshpArgs{
		Rows: int64(rows), Cols: int64(cols), Elem: accel.ElemC64,
		Src: src.addr(0), Dst: dst.addr(0),
	}.Params()}
}

// PlanBuilder assembles multi-pass, looped accelerator descriptors — the
// TDL structures of paper §3.4 — through a typed API.
type PlanBuilder struct {
	sys  *System
	desc *descriptor.Descriptor
	err  error
}

// NewPlan starts a descriptor.
func (s *System) NewPlan() *PlanBuilder {
	return &PlanBuilder{sys: s, desc: &descriptor.Descriptor{}}
}

// Pass appends one chained datapath: the output of each comp feeds the next
// through tile-local memory.
func (b *PlanBuilder) Pass(comps ...Comp) *PlanBuilder {
	if b.err != nil {
		return b
	}
	for _, c := range comps {
		if c.err != nil {
			b.err = c.err
			return b
		}
		if err := b.desc.AddComp(c.op, c.params); err != nil {
			b.err = err
			return b
		}
	}
	b.desc.AddEndPass()
	return b
}

// Chain appends one fused pass after statically verifying the
// producer→consumer handoffs by the rule the plan lowering fuses with: each
// comp's output span must be consumed whole by the next (same address, size
// and loop strides) and by no other stage, no later stage may write memory
// an earlier stage reads, and the summed per-iteration intermediates must
// fit the aggregate tile-local memory. Unlike Pass —
// which trusts the caller to chain compatible comps — Chain rejects an
// unfusible pipeline at build time with a stage-level error.
func (b *PlanBuilder) Chain(comps ...Comp) *PlanBuilder {
	if b.err != nil {
		return b
	}
	if err := b.verifyChain(descriptor.LoopCounts{}, comps); err != nil {
		b.err = err
		return b
	}
	return b.Pass(comps...)
}

// ChainLoop is Chain under a hardware loop nest (counts outermost first):
// the handoff verification must hold at every iteration of the nest, so
// per-level stride mismatches between producer and consumer are rejected
// even when the base addresses line up.
func (b *PlanBuilder) ChainLoop(counts []int, comps ...Comp) *PlanBuilder {
	if b.err != nil {
		return b
	}
	lc, err := descriptor.CountsOf(counts)
	if err != nil {
		b.err = err
		return b
	}
	if err := b.verifyChain(lc, comps); err != nil {
		b.err = err
		return b
	}
	return b.Loop(counts, comps...)
}

func (b *PlanBuilder) verifyChain(counts descriptor.LoopCounts, comps []Comp) error {
	cc := make([]accel.ChainComp, len(comps))
	for i, c := range comps {
		if c.err != nil {
			return c.err
		}
		cc[i] = accel.ChainComp{Op: c.op, Params: c.params}
	}
	cfg := b.sys.rt.Layer().Config()
	_, err := accel.VerifyChain(cc, counts, cfg.LMBytes*units.Bytes(cfg.Tiles))
	return err
}

// Loop appends a hardware loop nest (counts outermost first) over one pass
// of comps whose stride fields advance per iteration.
func (b *PlanBuilder) Loop(counts []int, comps ...Comp) *PlanBuilder {
	if b.err != nil {
		return b
	}
	lc, err := descriptor.CountsOf(counts)
	if err != nil {
		b.err = err
		return b
	}
	if err := b.desc.AddLoop(lc[:]...); err != nil {
		b.err = err
		return b
	}
	for _, c := range comps {
		if c.err != nil {
			b.err = c.err
			return b
		}
		if err := b.desc.AddComp(c.op, c.params); err != nil {
			b.err = err
			return b
		}
	}
	b.desc.AddEndPass()
	b.desc.AddEndLoop()
	return b
}

// Build installs the descriptor in the command space. The plan can be
// executed repeatedly (mealib_acc_execute) and must be destroyed
// (mealib_acc_destroy).
func (b *PlanBuilder) Build() (*InstalledPlan, error) {
	if b.err != nil {
		return nil, b.err
	}
	p, err := b.sys.rt.AccPlanDescriptor(b.desc)
	if err != nil {
		return nil, err
	}
	return &InstalledPlan{p: p}, nil
}

// Run builds, executes once and destroys.
func (b *PlanBuilder) Run() (*Run, error) {
	ip, err := b.Build()
	if err != nil {
		return nil, err
	}
	defer func() { _ = ip.Destroy() }()
	return ip.Execute()
}

// InstalledPlan is a descriptor living in the command space.
type InstalledPlan struct {
	p *mealibrt.Plan
}

// Execute launches the plan.
func (ip *InstalledPlan) Execute() (*Run, error) {
	return ip.ExecuteContext(context.Background())
}

// ExecuteContext launches the plan under a context bounding the admission
// wait. Once admitted the launch runs to completion, on the caller's
// goroutine, before ExecuteContext returns: the simulated hardware cannot be
// preempted mid-descriptor. Use SubmitContext and Wait for a wait to abandon.
func (ip *InstalledPlan) ExecuteContext(ctx context.Context) (*Run, error) {
	inv, err := ip.p.Execute(ctx)
	if err != nil {
		return nil, err
	}
	return runOf(inv), nil
}

// PendingRun is an in-flight plan execution started by Submit.
type PendingRun struct {
	pi *mealibrt.Launch
}

// Wait blocks until the flight completes and returns its Run.
func (pr *PendingRun) Wait() (*Run, error) {
	return pr.WaitContext(context.Background())
}

// WaitContext is Wait bounded by a context. Cancellation abandons the wait
// only — the flight runs to completion, and a later WaitContext can still
// collect it.
func (pr *PendingRun) WaitContext(ctx context.Context) (*Run, error) {
	inv, err := pr.pi.Wait(ctx)
	if err != nil {
		return nil, err
	}
	return runOf(inv), nil
}

// Submit launches the plan without waiting for it. The runtime admits a
// flight only once its buffers no longer overlap any in-flight plan's, so
// plans over disjoint data execute concurrently while conflicting plans
// serialise — results are identical either way.
func (ip *InstalledPlan) Submit() (*PendingRun, error) {
	return ip.SubmitContext(context.Background())
}

// SubmitContext is Submit bounded by a context: cancellation or deadline
// abandons a submission still blocked in admission.
func (ip *InstalledPlan) SubmitContext(ctx context.Context) (*PendingRun, error) {
	pi, err := ip.p.Submit(ctx)
	if err != nil {
		return nil, err
	}
	return &PendingRun{pi: pi}, nil
}

// Destroy releases the command-space allocation.
func (ip *InstalledPlan) Destroy() error { return ip.p.Destroy() }
