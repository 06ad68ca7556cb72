package accel

import (
	"math/rand"
	"slices"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
)

// The hand-written shapes: each allocates and fills its buffers on the rig
// and returns the descriptor over them. fixtures is the matrix's seed corpus
// (FuzzDifferential); the decision-pinning tests launch some of the shapes
// at sizes of their own.

// fixture is a hand-written shape, by name.
type fixture struct {
	name  string
	build func(t testing.TB, r *testRig) *descriptor.Descriptor
}

// fixtures is every shape the matrix is seeded with.
var fixtures = []fixture{
	{"AxpyLoop", axpyLoopCase},
	{"DotLoop", dotLoopCase},
	{"ComplexDotNestedLoop", complexDotNestedLoopCase},
	{"GemvLoop", gemvLoopCase},
	{"SpmvLoopFallsBackSerial", spmvLoopFallsBackSerialCase},
	{"ResmpLoop", resmpLoopCase},
	{"FFTLoop", fftLoopCase},
	{"ReshpSerialFallback", reshpSerialFallbackCase},
	{"ChainedPassLoop", chainedPassLoopCase},
	{"MultiplePassesAndLoops", multiplePassesAndLoopsCase},
	{"OverlappingWritesFallsBack", func(t testing.TB, r *testRig) *descriptor.Descriptor { return overlappingWrites(t, r, 512, 8) }},
	{"FusionChain", func(t testing.TB, r *testRig) *descriptor.Descriptor { return chainShape(t, r, 192, 256, 8) }},
	{"FusionSTAP", func(t testing.TB, r *testRig) *descriptor.Descriptor { return stapShape(t, r, 8, 2, 16) }},
	{"FusionSAR", func(t testing.TB, r *testRig) *descriptor.Descriptor { return sarShape(t, r, 75, 128, 2, 4) }},
	{"SmallWindows", chainThenPassCase},
	{"STAPShape", stapSectionsCase},
	{"SARShape", sarSectionsCase},
	{"RunModelChainAndNest", chainAndNestCase},
	{"WindowsCDOTCNest", cdotcNestCase},
	{"WindowsProducerConsumer", producerConsumerCase},
	{"WindowsThreePassNest", func(t testing.TB, r *testRig) *descriptor.Descriptor {
		const iters, n = 12, 16
		x, y, z := r.noise(t, n*iters, 241), r.noise(t, n*iters, 242), r.noise(t, n*iters, 243)
		return threePassNest(t, iters, n, x, y, z, r.alloc(4*iters))
	}},
	{"WindowsCarriedChain", carriedChainCase},
	{"WindowsOverlappingWrites", func(t testing.TB, r *testRig) *descriptor.Descriptor { return overlappingWrites(t, r, 32, 20) }},
}

// fixtureSeed is the generator input that draws the named fixture under the
// flags given.
func fixtureSeed(t testing.TB, name string, flags byte) []byte {
	i := slices.IndexFunc(fixtures, func(f fixture) bool { return f.name == name })
	if i < 0 {
		t.Fatalf("no fixture %q", name)
	}
	return []byte{flags, shapeFixture, byte(i)}
}

// checkFixture runs the named fixture through the matrix.
func checkFixture(t *testing.T, name string, flags byte) {
	checkCase(t, genCase(t, fixtureSeed(t, name, flags)))
}

// The tests of the shapes from before the matrix, by the names they had:
// each runs its shape through every cell.
func TestDifferentialAxpyLoop(t *testing.T)        { checkFixture(t, "AxpyLoop", 0) }
func TestDifferentialDotLoop(t *testing.T)         { checkFixture(t, "DotLoop", 0) }
func TestDifferentialGemvLoop(t *testing.T)        { checkFixture(t, "GemvLoop", 0) }
func TestDifferentialResmpLoop(t *testing.T)       { checkFixture(t, "ResmpLoop", 0) }
func TestDifferentialFFTLoop(t *testing.T)         { checkFixture(t, "FFTLoop", 0) }
func TestDifferentialChainedPassLoop(t *testing.T) { checkFixture(t, "ChainedPassLoop", 0) }
func TestDifferentialComplexDotNestedLoop(t *testing.T) {
	checkFixture(t, "ComplexDotNestedLoop", 0)
}
func TestDifferentialSpmvLoopFallsBackSerial(t *testing.T) {
	checkFixture(t, "SpmvLoopFallsBackSerial", 0)
}
func TestDifferentialReshpSerialFallback(t *testing.T) { checkFixture(t, "ReshpSerialFallback", 0) }
func TestDifferentialMultiplePassesAndLoops(t *testing.T) {
	checkFixture(t, "MultiplePassesAndLoops", 0)
}
func TestDifferentialOverlappingWritesFallsBack(t *testing.T) {
	checkFixture(t, "OverlappingWritesFallsBack", 0)
}
func TestDifferentialWindowsCDOTCNest(t *testing.T)     { checkFixture(t, "WindowsCDOTCNest", 0) }
func TestDifferentialWindowsThreePassNest(t *testing.T) { checkFixture(t, "WindowsThreePassNest", 0) }
func TestDifferentialWindowsCarriedChain(t *testing.T)  { checkFixture(t, "WindowsCarriedChain", 0) }
func TestDifferentialWindowsProducerConsumer(t *testing.T) {
	checkFixture(t, "WindowsProducerConsumer", 0)
}
func TestDifferentialWindowsOverlappingWrites(t *testing.T) {
	checkFixture(t, "WindowsOverlappingWrites", 0)
}
func TestCompiledEqualsFreshSmallWindows(t *testing.T) { checkFixture(t, "SmallWindows", 0) }
func TestModelDifferentialSTAPShape(t *testing.T)      { checkFixture(t, "STAPShape", 0) }
func TestModelDifferentialSARShape(t *testing.T)       { checkFixture(t, "SARShape", 0) }
func TestRunModelMatchesFunctionalRun(t *testing.T)    { checkFixture(t, "RunModelChainAndNest", 0) }

// TestModelDifferentialChainedPasses: the chained loop in 2-byte tile
// memories with its upper half remote, so that RunModel's scaled template
// must scale the spill and the remote traffic.
func TestModelDifferentialChainedPasses(t *testing.T) {
	checkFixture(t, "ChainedPassLoop", flagSmallLM|flagRemote)
}

// TestCompiledEqualsFreshFusion: the shapes fusion exists for, each of
// which must fuse, through the matrix.
func TestCompiledEqualsFreshFusion(t *testing.T) {
	for _, name := range []string{"FusionChain", "FusionSTAP", "FusionSAR"} {
		c := genCase(t, fixtureSeed(t, name, 0))
		if len(fused(t, c.d)) == 0 {
			t.Errorf("%s: nothing fused", name)
		}
		checkCase(t, c)
	}
}

// TestModelDifferentialAllOpcodes runs the LOOP fixture of each
// accelerator; the generated seeds run every one in top-level passes.
func TestModelDifferentialAllOpcodes(t *testing.T) {
	for op, name := range map[descriptor.OpCode]string{
		descriptor.OpAXPY: "AxpyLoop", descriptor.OpDOT: "DotLoop", descriptor.OpGEMV: "GemvLoop",
		descriptor.OpSPMV: "SpmvLoopFallsBackSerial", descriptor.OpRESMP: "ResmpLoop", descriptor.OpFFT: "FFTLoop",
		descriptor.OpRESHP: "ReshpSerialFallback",
	} {
		t.Run(op.String(), func(t *testing.T) { checkFixture(t, name, 0) })
	}
}

// noise allocates n float32s of seeded noise (n/2 complex64s).
func (r *testRig) noise(t testing.TB, n int, seed int64) phys.Addr {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	a := r.alloc(4 * n)
	if err := r.space.StoreFloat32s(a, v); err != nil {
		t.Fatal(err)
	}
	return a
}

// shape builds a descriptor pass by pass.
type shape struct {
	t testing.TB
	d *descriptor.Descriptor
}

func newShape(t testing.TB) *shape { return &shape{t: t, d: &descriptor.Descriptor{}} }

// pass appends one pass of the comps.
func (s *shape) pass(comps ...ChainComp) *shape {
	for _, c := range comps {
		if err := s.d.AddComp(c.Op, c.Params); err != nil {
			s.t.Fatal(err)
		}
	}
	s.d.AddEndPass()
	return s
}

// loop appends a LOOP of counts around body.
func (s *shape) loop(counts []uint32, body func(s *shape)) *shape {
	if err := s.d.AddLoop(counts...); err != nil {
		s.t.Fatal(err)
	}
	body(s)
	s.d.AddEndLoop()
	return s
}

// looped is one LOOP of iters around one pass of each comp.
func looped(t testing.TB, iters uint32, comps ...ChainComp) *descriptor.Descriptor {
	return newShape(t).loop([]uint32{iters}, func(s *shape) {
		for _, c := range comps {
			s.pass(c)
		}
	}).d
}

func axpyLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n, iters = 512, 24
	xa, ya := r.noise(t, n*iters, 11), r.noise(t, n*iters, 12)
	return looped(t, iters, ChainComp{descriptor.OpAXPY, AxpyArgs{
		N: n, Alpha: 1.25, X: xa, Y: ya, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n),
	}.Params()})
}

// dotLoopCase shares y read-only across iterations: still independent.
func dotLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n, iters = 768, 16
	xa, ya := r.noise(t, n*iters, 21), r.noise(t, n, 22)
	oa := r.alloc(4 * iters)
	return looped(t, iters, ChainComp{descriptor.OpDOT, DotArgs{
		N: n, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4 * n), LoopStrideOut: Lin(4),
	}.Params()})
}

func complexDotNestedLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n, outer, inner = 256, 4, 6
	xa := r.noise(t, 2*n*outer*inner, 31)
	ya := r.noise(t, 2*n, 32)
	oa := r.alloc(8 * outer * inner)
	return newShape(t).loop([]uint32{outer, inner}, func(s *shape) {
		s.pass(ChainComp{descriptor.OpDOT, DotArgs{
			N: n, Complex: true, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
			LoopStrideX:   Strides{0, 0, 8 * n * inner, 8 * n},
			LoopStrideOut: Strides{0, 0, 8 * inner, 8},
		}.Params()})
	}).d
}

func gemvLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const m, n, iters = 48, 32, 12
	aa := r.noise(t, m*n*iters, 41)
	xa := r.noise(t, n, 42)
	ya := r.noise(t, m*iters, 43)
	return looped(t, iters, ChainComp{descriptor.OpGEMV, GemvArgs{
		M: m, N: n, Alpha: 0.5, Beta: 0.25, A: aa, Lda: n, X: xa, Y: ya,
		LoopStrideA: Lin(4 * m * n), LoopStrideY: Lin(4 * m),
	}.Params()})
}

// spmvMatrix stores an m×cols CSR matrix of two non-zeros a row, and x, and
// returns SPMV's arguments over them into y.
func spmvMatrix(t testing.TB, r *testRig, m, cols int, seed int64) SpmvArgs {
	rowPtr := make([]int32, m+1)
	var colIdx []int32
	for i := 0; i < m; i++ {
		colIdx = append(colIdx, int32(i%cols), int32((i*7+3)%cols))
		rowPtr[i+1] = int32(len(colIdx))
	}
	nnz := len(colIdx)
	a := SpmvArgs{M: int64(m), Cols: int64(cols), NNZ: int64(nnz),
		RowPtr: r.alloc(4 * (m + 1)), ColIdx: r.alloc(4 * nnz), Values: r.noise(t, nnz, seed), X: r.noise(t, cols, seed+1), Y: r.alloc(4 * m)}
	if err := phys.Store(r.space, a.RowPtr, rowPtr); err != nil {
		t.Fatal(err)
	}
	if err := phys.Store(r.space, a.ColIdx, colIdx); err != nil {
		t.Fatal(err)
	}
	return a
}

// spmvLoopFallsBackSerialCase: SPMV has no loop strides, so every iteration
// rewrites the same y and the loop runs as a serial chain.
func spmvLoopFallsBackSerialCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	return looped(t, 4, ChainComp{descriptor.OpSPMV, spmvMatrix(t, r, 64, 64, 51).Params()})
}

func resmpLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const nin, nout, iters = 200, 300, 10
	sa := r.noise(t, nin*iters, 61)
	da := r.alloc(4 * nout * iters)
	return looped(t, iters, ChainComp{descriptor.OpRESMP, ResmpArgs{
		NIn: nin, NOut: nout, Kind: 1, Src: sa, Dst: da,
		LoopStrideSrc: Lin(4 * nin), LoopStrideDst: Lin(4 * nout),
	}.Params()})
}

// fftLoopCase is an in-place FFT per row, rows disjoint across iterations.
func fftLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n, iters = 256, 12
	sa := r.noise(t, 2*n*iters, 71)
	return looped(t, iters, ChainComp{descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: sa, Dst: sa,
		LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
	}.Params()})
}

// reshpSerialFallbackCase: RESHP carries no loop strides, so a loop around
// it serialises; the second iteration re-transposes the unchanged source.
func reshpSerialFallbackCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const rows, cols = 48, 32
	sa := r.noise(t, rows*cols, 81)
	da := r.alloc(4 * rows * cols)
	return looped(t, 2, ChainComp{descriptor.OpRESHP, ReshpArgs{Rows: rows, Cols: cols, Elem: ElemF32, Src: sa, Dst: da}.Params()})
}

// chainedPassLoopCase is RESMP chained into FFT inside one pass, looped over
// disjoint rows: the SAR image-formation shape.
func chainedPassLoopCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const nin, n, iters = 192, 256, 8
	rawA := r.noise(t, 2*nin*iters, 91)
	imgA := r.alloc(8 * n * iters)
	return newShape(t).loop([]uint32{iters}, func(s *shape) {
		s.pass(ChainComp{descriptor.OpRESMP, ResmpArgs{
			NIn: nin, NOut: n, Kind: ResmpComplex, Src: rawA, Dst: imgA,
			LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n),
		}.Params()}, ChainComp{descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: imgA, Dst: imgA,
			LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
		}.Params()})
	}).d
}

// multiplePassesAndLoopsCase: a plain pass, then a parallelisable loop, then
// a second loop reading the first loop's output.
func multiplePassesAndLoopsCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n, iters = 256, 8
	xa, ya := r.noise(t, n*iters, 101), r.noise(t, n*iters, 102)
	oa := r.alloc(4 * iters)
	return newShape(t).pass(ChainComp{descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 2, X: xa, Y: ya, IncX: 1, IncY: 1}.Params()}).
		loop([]uint32{iters}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpAXPY, AxpyArgs{
				N: n, Alpha: -0.5, X: xa, Y: ya, IncX: 1, IncY: 1,
				LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n),
			}.Params()})
		}).
		loop([]uint32{iters}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpDOT, DotArgs{
				N: n, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
				LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n), LoopStrideOut: Lin(4),
			}.Params()})
		}).d
}

// overlappingWrites is a loop whose iterations all accumulate into the same
// y: the dependence analysis must order them, and float addition makes the
// result depend on that order.
func overlappingWrites(t testing.TB, r *testRig, n, iters int) *descriptor.Descriptor {
	xa, ya := r.noise(t, n*iters, 111), r.noise(t, n, 112)
	return looped(t, uint32(iters), ChainComp{descriptor.OpAXPY, AxpyArgs{
		N: int64(n), Alpha: 1, X: xa, Y: ya, IncX: 1, IncY: 1,
		LoopStrideX: Lin(int64(4 * n)), // y has no stride: all iterations write it
	}.Params()})
}

// chainAndNestCase is a corner turn chained into FFTs in one pass, then a
// two-level LOOP of complex dots over the result.
func chainAndNestCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n = 64
	sa, ta := r.noise(t, 2*n*n, 2), r.alloc(8*n*n)
	return newShape(t).
		pass(ChainComp{descriptor.OpRESHP, ReshpArgs{Rows: n, Cols: n, Elem: ElemC64, Src: sa, Dst: ta}.Params()},
			ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: n, Src: ta, Dst: ta}.Params()}).
		loop([]uint32{4, 2}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpDOT, DotArgs{N: 16, Complex: true, X: ta, Y: ta, Out: sa, IncX: 1, IncY: 1,
				LoopStrideX: Lin(128), LoopStrideOut: Lin(8)}.Params()})
		}).d
}

// chainShape encodes the CHAIN micro: LOOP iters { PASS{RESMP ra->ia};
// PASS{FFT ia in place} } — the producer→consumer pair the fusion pass must
// merge.
func chainShape(t testing.TB, r *testRig, nin, n int64, iters uint32) *descriptor.Descriptor {
	ra := r.noise(t, int(2*nin*int64(iters)), 41)
	ia := r.alloc(int(8 * n * int64(iters)))
	return looped(t, iters, ChainComp{descriptor.OpRESMP, ResmpArgs{
		NIn: nin, NOut: n, Kind: ResmpComplex + int64(kernels.InterpLinear),
		Src: ra, Dst: ia,
		LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n),
	}.Params()}, ChainComp{descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: ia, Dst: ia,
		LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
	}.Params()})
}

// chainThenPassCase is the CHAIN micro with a top-level pass after the
// nest, so that windows of a few nodes mix the two.
func chainThenPassCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	d := chainShape(t, r, 96, 128, 9)
	x := r.noise(t, 64, 5)
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: 64, Alpha: 3, X: x, Y: x, IncX: 1, IncY: 1}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	return d
}

// stapShape is the STAP Doppler stage as separate library calls: corner
// turn (RESHP) into a scratch cube, then the batched pulse FFT over it.
func stapShape(t testing.TB, r *testRig, pulses, chans, rng int64) *descriptor.Descriptor {
	elems := pulses * chans * rng
	dc, scr, dop := r.noise(t, int(2*elems), 42), r.alloc(int(8*elems)), r.alloc(int(8*elems))
	return newShape(t).
		pass(ChainComp{descriptor.OpRESHP, ReshpArgs{Rows: chans * rng, Cols: pulses, Elem: ElemC64, Src: dc, Dst: scr}.Params()}).
		pass(ChainComp{descriptor.OpFFT, FFTArgs{N: pulses, HowMany: chans * rng, Src: scr, Dst: dop}.Params()}).d
}

// sarShape is SAR image formation as separate calls under a two-level loop:
// cubic range interpolation then the in-place azimuth FFT per row block.
func sarShape(t testing.TB, r *testRig, nin, n int64, outer, inner uint32) *descriptor.Descriptor {
	iters := int64(outer) * int64(inner)
	ra, ia := r.noise(t, int(2*nin*iters), 43), r.alloc(int(8*n*iters))
	// Two-level strides: the outer level jumps a block of inner rows.
	rstr := Strides{0, 0, 8 * nin * int64(inner), 8 * nin}
	istr := Strides{0, 0, 8 * n * int64(inner), 8 * n}
	return newShape(t).loop([]uint32{outer, inner}, func(s *shape) {
		s.pass(ChainComp{descriptor.OpRESMP, ResmpArgs{
			NIn: nin, NOut: n, Kind: ResmpComplex + int64(kernels.InterpCubic),
			Src: ra, Dst: ia, LoopStrideSrc: rstr, LoopStrideDst: istr,
		}.Params()})
		s.pass(ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: ia, Dst: ia, LoopStrideSrc: istr, LoopStrideDst: istr}.Params()})
	}).d
}

// stapSectionsCase mirrors the STAP pipeline of Figure 13: Doppler FFTs
// across channels, covariance GEMVs over the transformed cube per range
// gate, a detector DOT over their output, and a weight-application AXPY
// loop — four sections with different loop structures in one descriptor.
func stapSectionsCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const chans, n, gates, m = 8, 64, 4, 16
	cube, x, y := r.noise(t, 2*chans*n, 131), r.noise(t, n, 132), r.alloc(4*m*gates)
	w, v, out := r.noise(t, 32*16, 133), r.noise(t, 32*16, 134), r.alloc(4)
	return newShape(t).
		loop([]uint32{chans}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: cube, Dst: cube,
				LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n)}.Params()})
		}).
		loop([]uint32{gates}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpGEMV, GemvArgs{M: m, N: m, Alpha: 1, A: cube, Lda: m, X: x, Y: y,
				LoopStrideA: Lin(4 * m * m), LoopStrideY: Lin(4 * m)}.Params()})
		}).
		pass(ChainComp{descriptor.OpDOT, DotArgs{N: m * gates, X: y, Y: x, Out: out, IncX: 1, IncY: 1}.Params()}).
		loop([]uint32{16}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpAXPY, AxpyArgs{N: 32, Alpha: -1, X: w, Y: v, IncX: 1, IncY: 1,
				LoopStrideX: Lin(4 * 32), LoopStrideY: Lin(4 * 32)}.Params()})
		}).d
}

// sarSectionsCase mirrors the SAR image-formation pipeline: range
// interpolation chained into range FFTs, a corner-turn RESHP, then azimuth
// FFTs.
func sarSectionsCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const rows, nin, n = 8, 40, 64
	raw, img, turned := r.noise(t, 2*nin*rows, 141), r.alloc(8*n*rows), r.alloc(8*n*rows)
	return newShape(t).
		loop([]uint32{rows}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpRESMP, ResmpArgs{NIn: nin, NOut: n, Kind: ResmpComplex, Src: raw, Dst: img,
				LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n)}.Params()},
				ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: img, Dst: img,
					LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n)}.Params()})
		}).
		pass(ChainComp{descriptor.OpRESHP, ReshpArgs{Rows: rows, Cols: n, Elem: ElemC64, Src: img, Dst: turned}.Params()}).
		loop([]uint32{n}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpFFT, FFTArgs{N: rows, HowMany: 1, Src: turned, Dst: turned,
				LoopStrideSrc: Lin(8 * rows), LoopStrideDst: Lin(8 * rows)}.Params()})
		}).d
}

// cdotcNest is the STAP inner-product LOOP (apps/stap.InnerProducts): a
// 3-level nest of length-n complex dots over (pair, steering vector, cell).
// The y operand is read with stride `cells`, so the reads of neighbouring
// cells interleave and the dependence scoreboard splits them finely.
func cdotcNest(tb testing.TB, pairs, sv, cells, n int, w, y, out phys.Addr) *descriptor.Descriptor {
	tb.Helper()
	const elem = 8
	return newShape(tb).loop([]uint32{uint32(pairs), uint32(sv), uint32(cells)}, func(s *shape) {
		s.pass(ChainComp{descriptor.OpDOT, DotArgs{
			N: int64(n), Complex: true, X: w, Y: y, Out: out, IncX: 1, IncY: int64(cells),
			LoopStrideX:   Strides{0, int64(elem * sv * n), int64(elem * n), 0},
			LoopStrideY:   Strides{0, int64(elem * n * cells), 0, elem},
			LoopStrideOut: Strides{0, int64(elem * sv * cells), int64(elem * cells), elem},
		}.Params()})
	}).d
}

func cdotcNestCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const pairs, sv, cells, n = 2, 2, 8, 8
	w, y := r.noise(t, 2*pairs*sv*n, 201), r.noise(t, 2*pairs*n*cells, 202)
	out := r.alloc(8 * pairs * sv * cells)
	return cdotcNest(t, pairs, sv, cells, n, w, y, out)
}

// producerConsumerCase is a two-pass body whose second pass reads what the
// first wrote. A leading top-level pass reads the intermediate too, which
// keeps the pair unfused (two consumers) and puts window boundaries between
// the two passes of one iteration.
func producerConsumerCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	const n, iters = 64, 12
	xa, ya := r.noise(t, n*iters, 211), r.noise(t, n*iters, 212)
	oa := r.alloc(4 * (iters + 1))
	return newShape(t).
		pass(ChainComp{descriptor.OpDOT, DotArgs{N: n, X: xa, Y: ya, Out: oa + phys.Addr(4*iters), IncX: 1, IncY: 1}.Params()}).
		loop([]uint32{iters}, func(s *shape) {
			s.pass(ChainComp{descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 0.5, X: xa, Y: ya, IncX: 1, IncY: 1,
				LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()})
			s.pass(ChainComp{descriptor.OpDOT, DotArgs{N: n, X: ya, Y: xa, Out: oa, IncX: 1, IncY: 1,
				LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n), LoopStrideOut: Lin(4)}.Params()})
		}).d
}

// threePassNest is a conflict-free LOOP of three unfused passes that windows
// cut inside an iteration: an AXPY into y, a DOT over the first half of y
// (not the AXPY's whole output, so fusion leaves the pair alone) and an AXPY
// into z that depends on neither. Where a window starts at the DOT, the DOT
// loses its edge to the AXPY before the window and lands a wave earlier than
// in the iterations after it.
func threePassNest(t testing.TB, iters, n int, x, y, z, out phys.Addr) *descriptor.Descriptor {
	t.Helper()
	v := Lin(int64(4 * n))
	return looped(t, uint32(iters),
		ChainComp{descriptor.OpAXPY, AxpyArgs{N: int64(n), Alpha: 0.5, X: x, Y: y, IncX: 1, IncY: 1, LoopStrideX: v, LoopStrideY: v}.Params()},
		ChainComp{descriptor.OpDOT, DotArgs{N: int64(n / 2), X: y, Y: x, Out: out, IncX: 1, IncY: 1,
			LoopStrideX: v, LoopStrideY: v, LoopStrideOut: Lin(4)}.Params()},
		ChainComp{descriptor.OpAXPY, AxpyArgs{N: int64(n), Alpha: -2, X: x, Y: z, IncX: 1, IncY: 1, LoopStrideX: v, LoopStrideY: v}.Params()})
}

// carriedChainCase: every iteration of an SPMV loop rewrites the same y, so
// each depends on the one before, also on the one in the window before.
func carriedChainCase(t testing.TB, r *testRig) *descriptor.Descriptor {
	return looped(t, 20, ChainComp{descriptor.OpSPMV, spmvMatrix(t, r, 8, 8, 221).Params()})
}
