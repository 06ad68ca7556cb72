package accel

import (
	"testing"

	"mealib/internal/descriptor"
)

// TestPlanInterleavesSerialChainWithIndependentLoop pins the wavefront win
// over the old per-loop parallelism: a looped SPMV is a serial chain (every
// iteration rewrites y), and under the old interpreter its loop fully
// serialised the descriptor. In the plan IR the chain only orders its own
// nodes, so an unrelated strided AXPY loop rides in the same waves.
func TestPlanInterleavesSerialChainWithIndependentLoop(t *testing.T) {
	const spmvIters, axpyIters = 6, 8
	l := testLayer(t, 4, true)
	spmv := ChainComp{descriptor.OpSPMV, SpmvArgs{
		M: 64, Cols: 64, NNZ: 256,
		RowPtr: 0x10000, ColIdx: 0x20000, Values: 0x30000,
		X: 0x80000, Y: 0xf0000, // no loop strides: all iterations rewrite y
	}.Params()}
	d := newShape(t).loop([]uint32{spmvIters}, func(s *shape) { s.pass(spmv) }).
		loop([]uint32{axpyIters}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpAXPY, AxpyArgs{N: 1024, Alpha: 3, X: 0x200000, Y: 0x300000, IncX: 1, IncY: 1,
				LoopStrideX: Lin(4096), LoopStrideY: Lin(4096)}.Params()})
		}).d

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
		switch p.nodes[k].tmpl.comps[0].spec {
		case specs[descriptor.OpSPMV]:
			spmvN++
		case specs[descriptor.OpAXPY]:
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
	l := testLayer(t, 4, true)
	d := looped(t, iters, ChainComp{descriptor.OpSPMV, SpmvArgs{
		M: 64, Cols: 64, NNZ: 256,
		RowPtr: 0x10000, ColIdx: 0x20000, Values: 0x30000,
		X: 0x80000, Y: 0xf0000,
	}.Params()})
	info, err := l.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != iters || info.Waves != iters || info.MaxWidth != 1 {
		t.Errorf("ExplainPlan = %+v, want a %d-deep chain of width 1", info, iters)
	}
}
