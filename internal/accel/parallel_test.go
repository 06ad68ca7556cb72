package accel

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// diffArena is the mapped window compared byte for byte between serial and
// parallel runs.
const diffArena = 4 * units.MiB

// newRigWorkers is newRig with an explicit worker-pool size.
func newRigWorkers(t *testing.T, workers int) *testRig {
	t.Helper()
	s := phys.NewSpace(1 * units.GiB)
	if _, err := s.Map(0x10000, diffArena); err != nil {
		t.Fatal(err)
	}
	cfg := MEALibConfig()
	cfg.Workers = workers
	l, err := NewLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{space: s, layer: l, next: 0x10000}
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

// requireReportsIdentical compares every Report field bit for bit.
func requireReportsIdentical(t *testing.T, serial, parallel *Report) {
	t.Helper()
	if f64bits(float64(serial.Time)) != f64bits(float64(parallel.Time)) {
		t.Errorf("Time: serial %v, parallel %v", serial.Time, parallel.Time)
	}
	if f64bits(float64(serial.Energy)) != f64bits(float64(parallel.Energy)) {
		t.Errorf("Energy: serial %v, parallel %v", serial.Energy, parallel.Energy)
	}
	if f64bits(float64(serial.FetchDecodeTime)) != f64bits(float64(parallel.FetchDecodeTime)) {
		t.Errorf("FetchDecodeTime: serial %v, parallel %v", serial.FetchDecodeTime, parallel.FetchDecodeTime)
	}
	if serial.Comps != parallel.Comps {
		t.Errorf("Comps: serial %d, parallel %d", serial.Comps, parallel.Comps)
	}
	if serial.NoCBytes != parallel.NoCBytes {
		t.Errorf("NoCBytes: serial %d, parallel %d", serial.NoCBytes, parallel.NoCBytes)
	}
	if serial.LMSpillBytes != parallel.LMSpillBytes {
		t.Errorf("LMSpillBytes: serial %d, parallel %d", serial.LMSpillBytes, parallel.LMSpillBytes)
	}
	if serial.RemoteBytes != parallel.RemoteBytes {
		t.Errorf("RemoteBytes: serial %d, parallel %d", serial.RemoteBytes, parallel.RemoteBytes)
	}
	if len(serial.PerOp) != len(parallel.PerOp) {
		t.Fatalf("PerOp sizes differ: %d vs %d", len(serial.PerOp), len(parallel.PerOp))
	}
	for op, ss := range serial.PerOp {
		ps := parallel.PerOp[op]
		if ps == nil {
			t.Fatalf("parallel report missing op %v", op)
		}
		if ss.Invocations != ps.Invocations || ss.Bytes != ps.Bytes {
			t.Errorf("%v: invocations/bytes differ: %+v vs %+v", op, ss, ps)
		}
		if f64bits(float64(ss.Time)) != f64bits(float64(ps.Time)) ||
			f64bits(float64(ss.Energy)) != f64bits(float64(ps.Energy)) ||
			f64bits(float64(ss.Flops)) != f64bits(float64(ps.Flops)) {
			t.Errorf("%v: modelled stats differ: %+v vs %+v", op, ss, ps)
		}
	}
}

// runDifferential builds two identical rigs, one serial (Workers=1) and one
// parallel (Workers=4 — above this host's core count, which still
// interleaves goroutines and lets -race observe conflicts), runs the
// descriptor built by build on both, and requires bit-identical arena
// contents and identical reports. Every descriptor of this corpus then goes
// through the compiled-program differential (program_test.go).
func runDifferential(t *testing.T, build func(r *testRig) *descriptor.Descriptor) {
	t.Helper()
	serialRig := newRigWorkers(t, 1)
	parallelRig := newRigWorkers(t, 4)
	sd := build(serialRig)
	pd := build(parallelRig)
	sRep := serialRig.run(t, sd)
	pRep := parallelRig.run(t, pd)
	sBytes, err := serialRig.space.ViewBytes(0x10000, int(diffArena))
	if err != nil {
		t.Fatal(err)
	}
	pBytes, err := parallelRig.space.ViewBytes(0x10000, int(diffArena))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sBytes, pBytes) {
		for i := range sBytes {
			if sBytes[i] != pBytes[i] {
				t.Fatalf("space diverges at offset %#x: serial %#x, parallel %#x", i, sBytes[i], pBytes[i])
			}
		}
	}
	requireReportsIdentical(t, sRep, pRep)
	requireCompiledEqualsFresh(t, func() *testRig { return newRigWorkers(t, 4) }, planWindow, false, build)
}

// storeRandF32 fills [addr, addr+4n) with seeded noise.
func storeRandF32(t *testing.T, r *testRig, addr phys.Addr, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	if err := r.space.StoreFloat32s(addr, v); err != nil {
		t.Fatal(err)
	}
}

func storeRandC64(t *testing.T, r *testRig, addr phys.Addr, n int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	if err := r.space.StoreComplex64s(addr, v); err != nil {
		t.Fatal(err)
	}
}

func TestDifferentialAxpyLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const n, iters = 512, 24
		xa, ya := r.alloc(4*n*iters), r.alloc(4*n*iters)
		storeRandF32(t, r, xa, n*iters, 11)
		storeRandF32(t, r, ya, n*iters, 12)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
			N: n, Alpha: 1.25, X: xa, Y: ya, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialDotLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const n, iters = 768, 16
		xa, ya := r.alloc(4*n*iters), r.alloc(4*n)
		oa := r.alloc(4 * iters)
		storeRandF32(t, r, xa, n*iters, 21)
		storeRandF32(t, r, ya, n, 22)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		// y is shared read-only across iterations — still independent.
		if err := d.AddComp(descriptor.OpDOT, DotArgs{
			N: n, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideOut: Lin(4),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialComplexDotNestedLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const n, outer, inner = 256, 4, 6
		xa := r.alloc(8 * n * outer * inner)
		ya := r.alloc(8 * n)
		oa := r.alloc(8 * outer * inner)
		storeRandC64(t, r, xa, n*outer*inner, 31)
		storeRandC64(t, r, ya, n, 32)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(outer, inner); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpDOT, DotArgs{
			N: n, Complex: true, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
			LoopStrideX:   Strides{0, 0, 8 * n * inner, 8 * n},
			LoopStrideOut: Strides{0, 0, 8 * inner, 8},
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialGemvLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const m, n, iters = 48, 32, 12
		aa := r.alloc(4 * m * n * iters)
		xa := r.alloc(4 * n)
		ya := r.alloc(4 * m * iters)
		storeRandF32(t, r, aa, m*n*iters, 41)
		storeRandF32(t, r, xa, n, 42)
		storeRandF32(t, r, ya, m*iters, 43)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpGEMV, GemvArgs{
			M: m, N: n, Alpha: 0.5, Beta: 0.25, A: aa, Lda: n, X: xa, Y: ya,
			LoopStrideA: Lin(4 * m * n), LoopStrideY: Lin(4 * m),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialSpmvLoopFallsBackSerial(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const m, cols = 64, 64
		nnz := 0
		rowPtr := make([]int32, m+1)
		var colIdx []int32
		for i := 0; i < m; i++ {
			colIdx = append(colIdx, int32(i%cols), int32((i*7+3)%cols))
			nnz += 2
			rowPtr[i+1] = int32(nnz)
		}
		rpa := r.alloc(4 * (m + 1))
		cia := r.alloc(4 * nnz)
		va := r.alloc(4 * nnz)
		xa := r.alloc(4 * cols)
		ya := r.alloc(4 * m)
		if err := r.space.StoreInt32s(rpa, rowPtr); err != nil {
			t.Fatal(err)
		}
		if err := r.space.StoreInt32s(cia, colIdx); err != nil {
			t.Fatal(err)
		}
		storeRandF32(t, r, va, nnz, 51)
		storeRandF32(t, r, xa, cols, 52)
		d := &descriptor.Descriptor{}
		// SPMV has no loop strides: every iteration rewrites the same y, so
		// the loop must run serially — and the runs must still agree.
		if err := d.AddLoop(4); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpSPMV, SpmvArgs{
			M: m, Cols: cols, NNZ: int64(nnz),
			RowPtr: rpa, ColIdx: cia, Values: va, X: xa, Y: ya,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialResmpLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const nin, nout, iters = 200, 300, 10
		sa := r.alloc(4 * nin * iters)
		da := r.alloc(4 * nout * iters)
		storeRandF32(t, r, sa, nin*iters, 61)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
			NIn: nin, NOut: nout, Kind: 1, Src: sa, Dst: da,
			LoopStrideSrc: Lin(4 * nin), LoopStrideDst: Lin(4 * nout),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialFFTLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const n, iters = 256, 12
		sa := r.alloc(8 * n * iters)
		storeRandC64(t, r, sa, n*iters, 71)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		// In-place per-row FFT: src==dst, rows disjoint across iterations.
		if err := d.AddComp(descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: sa, Dst: sa,
			LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialReshpSerialFallback(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const rows, cols = 48, 32
		sa := r.alloc(4 * rows * cols)
		da := r.alloc(4 * rows * cols)
		storeRandF32(t, r, sa, rows*cols, 81)
		d := &descriptor.Descriptor{}
		// RESHP carries no loop strides, so a loop around it serialises; a
		// trip count of 2 transposes twice (the second run re-transposes the
		// unchanged source — identical output, exercising the fallback).
		if err := d.AddLoop(2); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpRESHP, ReshpArgs{
			Rows: rows, Cols: cols, Elem: ElemF32, Src: sa, Dst: da,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialChainedPassLoop(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const nin, n, iters = 192, 256, 8
		rawA := r.alloc(8 * nin * iters)
		imgA := r.alloc(8 * n * iters)
		storeRandC64(t, r, rawA, nin*iters, 91)
		d := &descriptor.Descriptor{}
		// RESMP chained into FFT inside one pass, looped over disjoint rows
		// — the SAR image-formation shape.
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
			NIn: nin, NOut: n, Kind: ResmpComplex, Src: rawA, Dst: imgA,
			LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: imgA, Dst: imgA,
			LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

func TestDifferentialMultiplePassesAndLoops(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const n, iters = 256, 8
		xa, ya := r.alloc(4*n*iters), r.alloc(4*n*iters)
		oa := r.alloc(4 * iters)
		storeRandF32(t, r, xa, n*iters, 101)
		storeRandF32(t, r, ya, n*iters, 102)
		d := &descriptor.Descriptor{}
		// Plain pass, then a parallelisable loop, then a second loop reading
		// the first loop's output.
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
			N: n, Alpha: 2, X: xa, Y: ya, IncX: 1, IncY: 1,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
			N: n, Alpha: -0.5, X: xa, Y: ya, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpDOT, DotArgs{
			N: n, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n), LoopStrideOut: Lin(4),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

// TestDifferentialOverlappingWritesFallsBack drives a loop whose iterations
// all accumulate into the same y: the checker must detect the conflict and
// the serialised parallel rig must match the serial one exactly.
func TestDifferentialOverlappingWritesFallsBack(t *testing.T) {
	runDifferential(t, func(r *testRig) *descriptor.Descriptor {
		const n, iters = 512, 8
		xa, ya := r.alloc(4*n*iters), r.alloc(4*n)
		storeRandF32(t, r, xa, n*iters, 111)
		storeRandF32(t, r, ya, n, 112)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
			N: n, Alpha: 1, X: xa, Y: ya, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), // y has no stride: all iterations write it
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}
