package accel

import (
	"errors"
	"fmt"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// The toy accelerator: dst[i] = alpha*src[i] + bias[0]. Nothing about it —
// a float field in second place, two strided vectors and one fixed scalar
// operand, a split by vector range — matches the accelerator whose opcode it
// borrows.
const (
	toyN, toyAlpha, toySrc, toyDst, toyBias = 0, 1, 2, 3, 4
)

func toySpec() *opSpec {
	return newSpec(opSpec{
		fields: []fieldKind{fInt, fF32, fStrided, fStrided, fAddr},
		elem:   f32Elems,
		operands: []operandSpec{
			{name: "src", addr: toySrc, footprint: lin(toyN), acc: accRead, step: unitStep},
			{name: "dst", addr: toyDst, footprint: lin(toyN), acc: accWrite, step: unitStep},
			{name: "bias", addr: toyBias, footprint: func(Args) (int64, int64, int64) { return 1, 0, 1 }, acc: accRead},
		},
		validate: func(a Args) error {
			if n := a.i(toyN); n <= 0 {
				return fmt.Errorf("TOY: non-positive length %d", n)
			}
			return nil
		},
		flops: func(a Args) units.Flops { return units.Flops(2 * a.i(toyN)) },
		run:   ranged(toyCore),
		chunk: &chunkAxis{count: toyN, per: func(a Args, pieces int64, _ units.Bytes) (int64, error) {
			return (a.i(toyN) + pieces - 1) / pieces, nil
		}},
	})
}

// toyArgs is the toy's parameter block as its core reads it.
type toyArgs struct {
	N                    int64
	Alpha                float32
	Src, Dst, Bias       phys.Addr
	SrcStride, DstStride Strides
}

func (a *toyArgs) slots() []any {
	return []any{&a.N, &a.Alpha, &a.Src, &a.Dst, &a.Bias, &a.SrcStride, &a.DstStride}
}

func toyCore(s *phys.Space, a toyArgs) error {
	src, err := s.LoadFloat32s(a.Src, int(a.N))
	if err != nil {
		return err
	}
	bias, err := s.ReadFloat32(a.Bias)
	if err != nil {
		return err
	}
	for i := range src {
		src[i] = a.Alpha*src[i] + bias
	}
	return s.StoreFloat32s(a.Dst, src)
}

func toyParams(n int64, alpha float32, src, dst, bias phys.Addr, srcStride, dstStride int64) descriptor.Params {
	p, err := Assemble(descriptor.OpRESHP, []uint64{
		uint64(n), descriptor.F32Field(alpha),
		descriptor.AddrField(src), descriptor.AddrField(dst), descriptor.AddrField(bias),
	}, func(f int) Strides {
		if f == toySrc {
			return Lin(srcStride)
		}
		return Lin(dstStride)
	})
	if err != nil {
		panic(err)
	}
	return p
}

// TestToyAcceleratorIsOneTableEntry swaps one opcode's table entry for the
// toy (descriptor rightly rejects opcode values it does not know, so the toy
// borrows RESHP's) and drives it through every layer that used to carry a
// per-opcode switch. Nothing but the entry changes, so everything the toy
// does right here is derived from the table.
func TestToyAcceleratorIsOneTableEntry(t *testing.T) {
	const op = descriptor.OpRESHP
	old := specs[op]
	specs[op] = toySpec()
	t.Cleanup(func() { specs[op] = old })

	checkFootprintProperty(t, op)

	r := fuseRig(t, 2, false)
	const n, iters = 256, 4
	src, mid, out, bias := r.alloc(4*n*iters), r.alloc(4*n*iters), r.alloc(4*n*iters), r.alloc(4)
	in := make([]float32, n*iters)
	for i := range in {
		in[i] = float32(i % 13)
	}
	if err := r.space.StoreFloat32s(src, in); err != nil {
		t.Fatal(err)
	}
	if err := r.space.WriteFloat32(bias, 0.5); err != nil {
		t.Fatal(err)
	}

	// Lowering and dependence edges: LOOP 4 { PASS{TOY src→mid}; PASS{AXPY
	// mid→out} } with per-iteration strides — iterations are independent, the
	// AXPY of each reads what its TOY wrote.
	loop := func(toyDstStride int64) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(op, toyParams(n, 2, src, mid, bias, 4*n, toyDstStride)); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 1, X: mid, Y: out, IncX: 1, IncY: 1,
			LoopStrideX: Lin(toyDstStride), LoopStrideY: Lin(4 * n)}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	}
	d := loop(4 * n)
	unfused, err := fuseRig(t, 2, true).layer.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if unfused.Nodes != 2*iters || unfused.Edges != iters || unfused.Waves != 2 || unfused.MaxWidth != iters {
		t.Errorf("unfused toy loop lowered to %+v; want 8 nodes, one RAW edge per iteration, 2 waves of 4", unfused)
	}
	// Fusion: mid is produced whole by the toy and consumed whole by the AXPY.
	fused, err := r.layer.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Fused) != 1 || fused.Fused[0].HandoffBytes != 4*n || fused.Nodes != iters {
		t.Errorf("toy→AXPY did not fuse: %+v", fused)
	}
	// Every iteration writing the same mid serialises the loop (WAW on the
	// toy, RAW/WAR against the AXPYs) and the handoff still matches.
	if shared, err := fuseRig(t, 2, true).layer.ExplainPlan(loop(0)); err != nil || shared.Waves != 2*iters {
		t.Errorf("shared intermediate: %+v, %v; want a %d-wave chain", shared, err, 2*iters)
	}
	// No fusion when the consumer reads half of what the toy wrote.
	half := &descriptor.Descriptor{}
	if err := half.AddComp(op, toyParams(n, 2, src, mid, bias, 0, 0)); err != nil {
		t.Fatal(err)
	}
	half.AddEndPass()
	if err := half.AddComp(descriptor.OpAXPY, AxpyArgs{N: n / 2, Alpha: 1, X: mid, Y: out, IncX: 1, IncY: 1}.Params()); err != nil {
		t.Fatal(err)
	}
	half.AddEndPass()
	if groups, err := FusionGroups(half, r.layer.cfg); err != nil || len(groups) != 0 {
		t.Errorf("partially consumed toy output fused: %+v, %v", groups, err)
	}

	// Execution through the layer, fused and on two workers.
	r.run(t, d)
	got, err := r.space.LoadFloat32s(out, n*iters)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if want := 2*in[i] + 0.5; v != want {
			t.Fatalf("out[%d] = %v, want %v", i, v, want)
		}
	}

	// Out-of-core: a toy over a host window twice the staging half splits
	// along its declared axis; without one it is unchunkable.
	const big = 4096
	window := func(a phys.Addr) bool { return a >= 1<<32 }
	one := &descriptor.Descriptor{}
	if err := one.AddComp(op, toyParams(big, 2, 1<<32, 1<<32+4*big, bias, 0, 0)); err != nil {
		t.Fatal(err)
	}
	one.AddEndPass()
	halves := [2]phys.Addr{r.alloc(16 << 10), r.alloc(16 << 10)}
	sched, err := r.layer.PlanOOC(one, window, halves, 16*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ch := range sched.Chunks {
		for c := range ch.Desc.Instrs {
			if p, err := ch.Desc.ParamsOf(c); err == nil {
				total += int64(p[toyN])
			}
		}
	}
	if len(sched.Chunks) < 2 || total != big {
		t.Errorf("toy split into %d chunks covering %d of %d elements", len(sched.Chunks), total, big)
	}
	specs[op].chunk = nil
	if _, err := r.layer.PlanOOC(one, window, halves, 16*units.KiB); !errors.Is(err, ErrUnchunkable) {
		t.Errorf("toy without a chunk axis: %v, want ErrUnchunkable", err)
	}
}

// TestGemvBetaZeroWritesOnly pins the one access direction of GEMV y: read
// iff beta != 0. A beta=0 GEMV orders exactly like a beta=1 one (the write
// it always does subsumes the read's edges), is not a fusion consumer
// through y, and still charges y's stream-in to the work model.
func TestGemvBetaZeroWritesOnly(t *testing.T) {
	r := fuseRig(t, 1, false)
	const m, n = 64, 32
	a, x, src, y := r.alloc(4*m*n), r.alloc(4*n), r.alloc(4*m), r.alloc(4*m)
	build := func(beta float32) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		// PASS{RESMP src→y}; PASS{GEMV y = A*x + beta*y}
		if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{NIn: m, NOut: m, Kind: int64(kernels.InterpLinear), Src: src, Dst: y}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		if err := d.AddComp(descriptor.OpGEMV, GemvArgs{M: m, N: n, Alpha: 1, Beta: beta, A: a, Lda: n, X: x, Y: y}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		return d
	}
	shape := func(l *Layer, beta float32) PlanInfo {
		info, err := l.ExplainPlan(build(beta))
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	plain := fuseRig(t, 1, true).layer
	zero, one := shape(plain, 0), shape(plain, 1)
	if zero.Nodes != 2 || zero.Edges != 1 || zero.Waves != 2 {
		t.Errorf("beta=0 GEMV after its y's writer lowered to %+v; want 2 nodes, 1 edge, 2 waves", zero)
	}
	if zero.Nodes != one.Nodes || zero.Edges != one.Edges || zero.Waves != one.Waves {
		t.Errorf("beta=0 lowers to %+v, beta=1 to %+v: dropping the read must not drop an edge", zero, one)
	}
	if got := shape(r.layer, 1); len(got.Fused) != 1 {
		t.Errorf("beta=1 GEMV consumes y: want the RESMP→GEMV handoff fused, got %+v", got)
	}
	if got := shape(r.layer, 0); len(got.Fused) != 0 {
		t.Errorf("beta=0 GEMV never reads y, yet was offered as its consumer: %+v", got.Fused)
	}
	gemv := func(beta float32) descriptor.Params {
		return GemvArgs{M: m, N: n, Beta: beta, A: a, Lda: n, X: x, Y: y}.Params()
	}
	w0, _ := WorkOf(descriptor.OpGEMV, gemv(0))
	w1, _ := WorkOf(descriptor.OpGEMV, gemv(1))
	if w0 != w1 || w0.InStream != 4*(m*n+n+m) {
		t.Errorf("work model must not depend on beta: %+v vs %+v", w0, w1)
	}
}

// maxOpSpans bounds the directional spans one invocation of any accelerator
// in the table can emit.
func maxOpSpans() int {
	most := 0
	for _, s := range specs {
		if s != nil {
			most = max(most, s.maxSpans)
		}
	}
	return most
}
