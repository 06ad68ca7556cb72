package accel

import (
	"testing"

	"mealib/internal/descriptor"
)

// Analytic-path differentials: RunModel on a serial (Workers=1) layer and a
// scheduled (Workers=4) layer must produce bit-identical reports — the
// wavefront scheduler may reorder evaluation but never results. RunModel
// touches no memory, so no space is needed.

func newModelLayer(t *testing.T, workers int) *Layer {
	t.Helper()
	cfg := MEALibConfig()
	cfg.Workers = workers
	l, err := NewLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func runModelDifferential(t *testing.T, d *descriptor.Descriptor) {
	t.Helper()
	serial, err := newModelLayer(t, 1).RunModel(d)
	if err != nil {
		t.Fatal(err)
	}
	scheduled, err := newModelLayer(t, 4).RunModel(d)
	if err != nil {
		t.Fatal(err)
	}
	requireReportsIdentical(t, serial, scheduled)
}

// TestModelDifferentialAllOpcodes drives every accelerator opcode through
// the analytic path, plain and looped.
func TestModelDifferentialAllOpcodes(t *testing.T) {
	cases := []struct {
		name string
		add  func(d *descriptor.Descriptor) error
	}{
		{"AXPY", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpAXPY, AxpyArgs{
				N: 4096, Alpha: 2, X: 0x10000, Y: 0x80000, IncX: 1, IncY: 1,
				LoopStrideX: Lin(16384), LoopStrideY: Lin(16384),
			}.Params())
		}},
		{"DOT", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpDOT, DotArgs{
				N: 4096, X: 0x10000, Y: 0x80000, Out: 0xf0000, IncX: 1, IncY: 1,
				LoopStrideX: Lin(16384), LoopStrideOut: Lin(4),
			}.Params())
		}},
		{"GEMV", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpGEMV, GemvArgs{
				M: 64, N: 64, Alpha: 1, Beta: 0.5, A: 0x10000, Lda: 64,
				X: 0x80000, Y: 0xf0000,
				LoopStrideA: Lin(4 * 64 * 64), LoopStrideY: Lin(4 * 64),
			}.Params())
		}},
		{"SPMV", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpSPMV, SpmvArgs{
				M: 64, Cols: 64, NNZ: 256,
				RowPtr: 0x10000, ColIdx: 0x20000, Values: 0x30000,
				X: 0x80000, Y: 0xf0000,
			}.Params())
		}},
		{"RESMP", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpRESMP, ResmpArgs{
				NIn: 256, NOut: 384, Kind: 1, Src: 0x10000, Dst: 0x80000,
				LoopStrideSrc: Lin(4 * 256), LoopStrideDst: Lin(4 * 384),
			}.Params())
		}},
		{"FFT", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpFFT, FFTArgs{
				N: 512, HowMany: 1, Src: 0x10000, Dst: 0x10000,
				LoopStrideSrc: Lin(8 * 512), LoopStrideDst: Lin(8 * 512),
			}.Params())
		}},
		{"RESHP", func(d *descriptor.Descriptor) error {
			return d.AddComp(descriptor.OpRESHP, ReshpArgs{
				Rows: 64, Cols: 32, Elem: ElemF32, Src: 0x10000, Dst: 0x80000,
			}.Params())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := &descriptor.Descriptor{}
			if err := c.add(d); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
			runModelDifferential(t, d)

			looped := &descriptor.Descriptor{}
			if err := looped.AddLoop(12); err != nil {
				t.Fatal(err)
			}
			if err := c.add(looped); err != nil {
				t.Fatal(err)
			}
			looped.AddEndPass()
			looped.AddEndLoop()
			runModelDifferential(t, looped)
		})
	}
}

// TestModelDifferentialChainedPasses chains two accelerators in one pass
// inside a loop (the SAR image-formation shape).
func TestModelDifferentialChainedPasses(t *testing.T) {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(16); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
		NIn: 192, NOut: 256, Kind: ResmpComplex, Src: 0x10000, Dst: 0x80000,
		LoopStrideSrc: Lin(8 * 192), LoopStrideDst: Lin(8 * 256),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: 256, HowMany: 1, Src: 0x80000, Dst: 0x80000,
		LoopStrideSrc: Lin(8 * 256), LoopStrideDst: Lin(8 * 256),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	runModelDifferential(t, d)
}

// TestModelDifferentialSTAPShape mirrors the STAP pipeline of Figure 13:
// Doppler FFTs across channels, covariance GEMVs per range gate, a detector
// DOT, and a weight-application AXPY loop — four program sections with
// different loop structures in one descriptor.
func TestModelDifferentialSTAPShape(t *testing.T) {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(32); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: 128, HowMany: 1, Src: 0x10000, Dst: 0x10000,
		LoopStrideSrc: Lin(8 * 128), LoopStrideDst: Lin(8 * 128),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := d.AddLoop(16); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpGEMV, GemvArgs{
		M: 32, N: 32, Alpha: 1, Beta: 0, A: 0x10000, Lda: 32,
		X: 0x200000, Y: 0x300000,
		LoopStrideA: Lin(4 * 32 * 32), LoopStrideY: Lin(4 * 32),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := d.AddComp(descriptor.OpDOT, DotArgs{
		N: 512, X: 0x300000, Y: 0x200000, Out: 0x400000, IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if err := d.AddLoop(64); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
		N: 256, Alpha: -1, X: 0x500000, Y: 0x600000, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4 * 256), LoopStrideY: Lin(4 * 256),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	runModelDifferential(t, d)
}

// TestModelDifferentialSARShape mirrors the SAR image formation pipeline:
// range interpolation chained into range FFTs, a corner-turn RESHP, then
// azimuth FFTs.
func TestModelDifferentialSARShape(t *testing.T) {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(24); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
		NIn: 160, NOut: 256, Kind: ResmpComplex, Src: 0x10000, Dst: 0x200000,
		LoopStrideSrc: Lin(8 * 160), LoopStrideDst: Lin(8 * 256),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: 256, HowMany: 1, Src: 0x200000, Dst: 0x200000,
		LoopStrideSrc: Lin(8 * 256), LoopStrideDst: Lin(8 * 256),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := d.AddComp(descriptor.OpRESHP, ReshpArgs{
		Rows: 24, Cols: 256, Elem: ElemC64, Src: 0x200000, Dst: 0x400000,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if err := d.AddLoop(256); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: 24, HowMany: 1, Src: 0x400000, Dst: 0x400000,
		LoopStrideSrc: Lin(8 * 24), LoopStrideDst: Lin(8 * 24),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	runModelDifferential(t, d)
}

// TestPlanInterleavesSerialChainWithIndependentLoop pins the wavefront win
// over the old per-loop parallelism: a looped SPMV is a serial chain (every
// iteration rewrites y), and under the old interpreter its loop fully
// serialised the descriptor. In the plan IR the chain only orders its own
// nodes, so an unrelated strided AXPY loop rides in the same waves.
func TestPlanInterleavesSerialChainWithIndependentLoop(t *testing.T) {
	const spmvIters, axpyIters = 6, 8
	l := newModelLayer(t, 4)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(spmvIters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpSPMV, SpmvArgs{
		M: 64, Cols: 64, NNZ: 256,
		RowPtr: 0x10000, ColIdx: 0x20000, Values: 0x30000,
		X: 0x80000, Y: 0xf0000, // no loop strides: all iterations rewrite y
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := d.AddLoop(axpyIters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
		N: 1024, Alpha: 3, X: 0x200000, Y: 0x300000, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4096), LoopStrideY: Lin(4096),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()

	var lw lowering
	if err := l.lower(d, planExpand, &lw); err != nil {
		t.Fatal(err)
	}
	p := &plan{}
	lw.next(p)
	if lw.more() {
		t.Fatalf("%d nodes did not fit one window", spmvIters+axpyIters)
	}
	if got := len(p.nodes); got != spmvIters+axpyIters {
		t.Fatalf("nodes = %d, want %d", got, spmvIters+axpyIters)
	}
	// The SPMV chain sets the wave count; the AXPY nodes all land in wave 0.
	if got := len(p.waves); got != spmvIters {
		t.Errorf("waves = %d, want %d (the SPMV chain depth)", got, spmvIters)
	}
	var spmvN, axpyN int
	for _, k := range p.waves[0] {
		switch p.nodes[k].pass[0].Op {
		case descriptor.OpSPMV:
			spmvN++
		case descriptor.OpAXPY:
			axpyN++
		}
	}
	if spmvN != 1 || axpyN != axpyIters {
		t.Errorf("wave 0 holds %d SPMV + %d AXPY nodes, want 1 + %d", spmvN, axpyN, axpyIters)
	}
	if p.maxWidth() <= 1 {
		t.Errorf("maxWidth = %d: the previously-serialised case must expose parallelism", p.maxWidth())
	}

	info, err := l.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != spmvIters+axpyIters || info.Waves != spmvIters || info.MaxWidth != 1+axpyIters {
		t.Errorf("ExplainPlan = %+v, want %d nodes, %d waves, width %d",
			info, spmvIters+axpyIters, spmvIters, 1+axpyIters)
	}
}

// TestExplainPlanSerialChainAlone: the same SPMV loop by itself stays a
// pure chain — one node per wave.
func TestExplainPlanSerialChainAlone(t *testing.T) {
	const iters = 5
	l := newModelLayer(t, 4)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpSPMV, SpmvArgs{
		M: 64, Cols: 64, NNZ: 256,
		RowPtr: 0x10000, ColIdx: 0x20000, Values: 0x30000,
		X: 0x80000, Y: 0xf0000,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	info, err := l.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != iters || info.Waves != iters || info.MaxWidth != 1 {
		t.Errorf("ExplainPlan = %+v, want a %d-deep chain of width 1", info, iters)
	}
}
