package accel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// testRig provides a space with a mapped arena and a layer.
type testRig struct {
	space *phys.Space
	layer *Layer
	next  phys.Addr
}

func newRig(t testing.TB) *testRig { return rigOn(t, MEALibConfig(), 64*units.MiB) }

// rigOn maps an arena of the given size at arenaBase for a layer on cfg.
func rigOn(t testing.TB, cfg *Config, arena units.Bytes) *testRig {
	t.Helper()
	s := phys.NewSpace(1 * units.GiB)
	if _, err := s.Map(arenaBase, arena); err != nil {
		t.Fatal(err)
	}
	return &testRig{space: s, layer: mustLayer(t, cfg), next: arenaBase}
}

// configWith is the paper's configuration with a worker pool and the fusion
// switch set: the two knobs of the matrix a layer holds.
func configWith(workers int, fusion bool) *Config {
	cfg := MEALibConfig()
	cfg.Workers, cfg.NoFusion = workers, !fusion
	return cfg
}

// testLayer is a layer of configWith(workers, fusion).
func testLayer(t testing.TB, workers int, fusion bool) *Layer {
	return mustLayer(t, configWith(workers, fusion))
}

func mustLayer(t testing.TB, cfg *Config) *Layer {
	t.Helper()
	l, err := NewLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// alloc reserves n bytes in the arena.
func (r *testRig) alloc(n int) phys.Addr {
	a := r.next
	r.next += phys.Addr((n + 63) &^ 63)
	return a
}

func (r *testRig) run(t testing.TB, d *descriptor.Descriptor) *Report {
	t.Helper()
	base := r.alloc(int(d.Size()))
	rep, err := r.layer.RunPlain(r.space, d, base)
	if err != nil {
		t.Fatal(err)
	}
	// The CU must have marked the descriptor done.
	slot, err := r.space.ViewBytes(base, descriptor.SlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	cmd, err := descriptor.CommandOf(slot, base)
	if err != nil || cmd != descriptor.CmdDone {
		t.Fatalf("descriptor command after run = %d, %v; want done", cmd, err)
	}
	return rep
}

func TestRunRequiresStart(t *testing.T) {
	r := newRig(t)
	d := &descriptor.Descriptor{}
	xa, ya := r.alloc(64), r.alloc(64)
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: 4, Alpha: 1, X: xa, Y: ya, IncX: 1, IncY: 1}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	base := r.alloc(int(d.Size()))
	if err := d.Encode(r.space, base); err != nil {
		t.Fatal(err)
	}
	// Not started: must refuse.
	if _, err := r.layer.Run(r.space, base); err == nil {
		t.Error("Run on idle descriptor must fail")
	}
}

func TestAxpyFunctional(t *testing.T) {
	r := newRig(t)
	n := 1000
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, n)
	y := make([]float32, n)
	want := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
		want[i] = y[i] + 2.5*x[i]
	}
	xa, ya := r.alloc(4*n), r.alloc(4*n)
	if err := r.space.StoreFloat32s(xa, x); err != nil {
		t.Fatal(err)
	}
	if err := r.space.StoreFloat32s(ya, y); err != nil {
		t.Fatal(err)
	}
	d := newShape(t).pass(ChainComp{descriptor.OpAXPY, AxpyArgs{N: int64(n), Alpha: 2.5, X: xa, Y: ya, IncX: 1, IncY: 1}.Params()}).d
	rep := r.run(t, d)
	got, err := r.space.LoadFloat32s(ya, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if rep.Comps != 1 || rep.Time <= 0 || rep.Energy <= 0 {
		t.Errorf("report = %+v", rep)
	}
	if rep.PerOp[descriptor.OpAXPY].Invocations != 1 {
		t.Error("per-op stats missing")
	}
}

func TestDotRealAndComplex(t *testing.T) {
	r := newRig(t)
	// Real dot.
	x := []float32{1, 2, 3}
	y := []float32{4, 5, 6}
	xa, ya, oa := r.alloc(12), r.alloc(12), r.alloc(8)
	_ = r.space.StoreFloat32s(xa, x)
	_ = r.space.StoreFloat32s(ya, y)
	d := newShape(t).pass(ChainComp{descriptor.OpDOT, DotArgs{N: 3, X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1}.Params()}).d
	r.run(t, d)
	got, _ := r.space.ReadFloat32(oa)
	if got != 32 {
		t.Errorf("real dot = %v, want 32", got)
	}
	// Complex conjugated dot.
	cx := []complex64{1 + 2i, 3 - 1i}
	cy := []complex64{2, 1 + 1i}
	cxa, cya, coa := r.alloc(16), r.alloc(16), r.alloc(8)
	_ = phys.Store(r.space, cxa, cx)
	_ = phys.Store(r.space, cya, cy)
	d2 := newShape(t).pass(ChainComp{descriptor.OpDOT, DotArgs{N: 2, Complex: true, X: cxa, Y: cya, Out: coa, IncX: 1, IncY: 1}.Params()}).d
	r.run(t, d2)
	cgot, _ := phys.Load[complex64](r.space, coa, 1)
	if cmplx.Abs(complex128(cgot[0])-4) > 1e-5 {
		t.Errorf("complex dot = %v, want 4", cgot[0])
	}
}

func TestGemvFunctional(t *testing.T) {
	r := newRig(t)
	a := []float32{1, 2, 3, 4}
	x := []float32{1, 1}
	y := []float32{0, 0}
	aa, xa, ya := r.alloc(16), r.alloc(8), r.alloc(8)
	_ = r.space.StoreFloat32s(aa, a)
	_ = r.space.StoreFloat32s(xa, x)
	_ = r.space.StoreFloat32s(ya, y)
	d := newShape(t).pass(ChainComp{descriptor.OpGEMV, GemvArgs{M: 2, N: 2, Alpha: 1, Beta: 0, A: aa, Lda: 2, X: xa, Y: ya}.Params()}).d
	r.run(t, d)
	got, _ := r.space.LoadFloat32s(ya, 2)
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("gemv y = %v, want [3 7]", got)
	}
}

func TestSpmvFunctional(t *testing.T) {
	r := newRig(t)
	rowPtr := []int32{0, 2, 3, 5}
	colIdx := []int32{0, 2, 1, 0, 2}
	values := []float32{1, 2, 3, 4, 5}
	x := []float32{1, 2, 3}
	rpa, cia, va := r.alloc(16), r.alloc(20), r.alloc(20)
	xa, ya := r.alloc(12), r.alloc(12)
	_ = phys.Store(r.space, rpa, rowPtr)
	_ = phys.Store(r.space, cia, colIdx)
	_ = r.space.StoreFloat32s(va, values)
	_ = r.space.StoreFloat32s(xa, x)
	d := newShape(t).pass(ChainComp{descriptor.OpSPMV, SpmvArgs{M: 3, Cols: 3, NNZ: 5, RowPtr: rpa, ColIdx: cia, Values: va, X: xa, Y: ya}.Params()}).d
	rep := r.run(t, d)
	got, _ := r.space.LoadFloat32s(ya, 3)
	want := []float32{7, 6, 19}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spmv y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if rep.PerOp[descriptor.OpSPMV].Bytes == 0 {
		t.Error("spmv must report traffic")
	}
}

func TestFFTAndReshpFunctional(t *testing.T) {
	r := newRig(t)
	n := 16
	data := make([]complex64, n)
	data[0] = 1 // impulse -> flat spectrum
	da := r.alloc(8 * n)
	_ = phys.Store(r.space, da, data)
	d := newShape(t).pass(ChainComp{descriptor.OpFFT, FFTArgs{N: int64(n), HowMany: 1, Src: da, Dst: da}.Params()}).d
	r.run(t, d)
	got, _ := phys.Load[complex64](r.space, da, n)
	for i, v := range got {
		if cmplx.Abs(complex128(v)-1) > 1e-4 {
			t.Fatalf("fft bin %d = %v, want 1", i, v)
		}
	}
	// RESHP f32.
	src := []float32{1, 2, 3, 4, 5, 6}
	sa, ta := r.alloc(24), r.alloc(24)
	_ = r.space.StoreFloat32s(sa, src)
	d2 := newShape(t).pass(ChainComp{descriptor.OpRESHP, ReshpArgs{Rows: 2, Cols: 3, Elem: ElemF32, Src: sa, Dst: ta}.Params()}).d
	r.run(t, d2)
	tr, _ := r.space.LoadFloat32s(ta, 6)
	want := []float32{1, 4, 2, 5, 3, 6}
	for i := range want {
		if tr[i] != want[i] {
			t.Errorf("reshp[%d] = %v, want %v", i, tr[i], want[i])
		}
	}
}

func TestResmpFunctional(t *testing.T) {
	r := newRig(t)
	src := []float32{0, 2, 4, 6}
	sa, da := r.alloc(16), r.alloc(16*4)
	_ = r.space.StoreFloat32s(sa, src)
	d := newShape(t).pass(ChainComp{descriptor.OpRESMP, ResmpArgs{NIn: 4, NOut: 7, Kind: int64(kernels.InterpLinear), Src: sa, Dst: da}.Params()}).d
	r.run(t, d)
	got, _ := r.space.LoadFloat32s(da, 7)
	for i, v := range got {
		want := float32(i)
		if math.Abs(float64(v-want)) > 1e-5 {
			t.Errorf("resample[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestLoopExecutesWithStrides(t *testing.T) {
	r := newRig(t)
	// 4 batched dot products via one LOOP descriptor: x fixed, y advancing.
	n, iters := 8, 4
	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	xa := r.alloc(4 * n)
	_ = r.space.StoreFloat32s(xa, x)
	ya := r.alloc(4 * n * iters)
	oa := r.alloc(4 * iters)
	for k := 0; k < iters; k++ {
		y := make([]float32, n)
		for i := range y {
			y[i] = float32(k + 1)
		}
		_ = r.space.StoreFloat32s(ya+phys.Addr(4*n*k), y)
	}
	rep := r.run(t, looped(t, uint32(iters), ChainComp{descriptor.OpDOT, DotArgs{
		N: int64(n), X: xa, Y: ya, Out: oa, IncX: 1, IncY: 1,
		LoopStrideY: Lin(int64(4 * n)), LoopStrideOut: Lin(4),
	}.Params()}))
	if rep.Comps != int64(iters) {
		t.Errorf("comps = %d, want %d", rep.Comps, iters)
	}
	got, _ := r.space.LoadFloat32s(oa, iters)
	for k := 0; k < iters; k++ {
		want := float32(n * (k + 1))
		if got[k] != want {
			t.Errorf("loop dot %d = %v, want %v", k, got[k], want)
		}
	}
}

func TestChainingReducesTimeAndDRAMTraffic(t *testing.T) {
	r := newRig(t)
	n := 256 // n x n transpose then n FFTs of length n
	elems := n * n
	src := make([]complex64, elems)
	rng := rand.New(rand.NewSource(2))
	for i := range src {
		src[i] = complex(float32(rng.NormFloat64()), 0)
	}
	mkBuffers := func() (phys.Addr, phys.Addr) {
		sa, ta := r.alloc(8*elems), r.alloc(8*elems)
		_ = phys.Store(r.space, sa, src)
		return sa, ta
	}
	reshp := func(sa, ta phys.Addr) descriptor.Params {
		return ReshpArgs{Rows: int64(n), Cols: int64(n), Elem: ElemC64, Src: sa, Dst: ta}.Params()
	}
	fft := func(ta phys.Addr) descriptor.Params {
		return FFTArgs{N: int64(n), HowMany: int64(n), Src: ta, Dst: ta}.Params()
	}

	// Hardware chaining: one pass with both comps.
	sa1, ta1 := mkBuffers()
	chained := &descriptor.Descriptor{}
	_ = chained.AddComp(descriptor.OpRESHP, reshp(sa1, ta1))
	_ = chained.AddComp(descriptor.OpFFT, fft(ta1))
	chained.AddEndPass()
	repHW := r.run(t, chained)

	// Software chaining: two separate passes, with the fusion pass off so
	// the intermediate really round-trips through DRAM.
	nofuse := newRig(t)
	nofuse.layer.cfg.NoFusion = true
	sa2, ta2 := mkBuffers2(nofuse, src)
	separate := &descriptor.Descriptor{}
	_ = separate.AddComp(descriptor.OpRESHP, reshp(sa2, ta2))
	separate.AddEndPass()
	_ = separate.AddComp(descriptor.OpFFT, fft(ta2))
	separate.AddEndPass()
	repSW := nofuse.run(t, separate)

	// With fusion on (the default), the same two-pass descriptor merges
	// back into a chained pass.
	sa3, ta3 := mkBuffers()
	fused := &descriptor.Descriptor{}
	_ = fused.AddComp(descriptor.OpRESHP, reshp(sa3, ta3))
	fused.AddEndPass()
	_ = fused.AddComp(descriptor.OpFFT, fft(ta3))
	fused.AddEndPass()
	repFused := r.run(t, fused)

	if repHW.Time >= repSW.Time {
		t.Errorf("chained time %v not below separate %v", repHW.Time, repSW.Time)
	}
	if repHW.NoCBytes == 0 {
		t.Error("chained pass must move intermediate over the NoC")
	}
	if repSW.NoCBytes != 0 {
		t.Error("separate passes must not use the NoC")
	}
	if repSW.ElidedBytes != 0 {
		t.Error("unfused passes must not report elided DRAM traffic")
	}
	if repFused.NoCBytes != repHW.NoCBytes {
		t.Errorf("fused NoC bytes %v != hand-chained %v", repFused.NoCBytes, repHW.NoCBytes)
	}
	if repFused.ElidedBytes == 0 {
		t.Error("fused pass must report elided DRAM traffic")
	}
	// All paths must compute identical results.
	a, _ := phys.Load[complex64](r.space, ta1, elems)
	b, _ := phys.Load[complex64](nofuse.space, ta2, elems)
	c, _ := phys.Load[complex64](r.space, ta3, elems)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("chained, separate and fused results differ at %d", i)
		}
	}
}

// mkBuffers2 allocates the source/target pair in an independent rig.
func mkBuffers2(r *testRig, src []complex64) (phys.Addr, phys.Addr) {
	sa, ta := r.alloc(8*len(src)), r.alloc(8*len(src))
	_ = phys.Store(r.space, sa, src)
	return sa, ta
}

func TestModelProperties(t *testing.T) {
	cfg := MEALibConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.RandomBandwidth() >= cfg.StreamBandwidth() {
		t.Error("random bandwidth must be below streaming bandwidth")
	}
	// Memory-bound op: time tracks bytes.
	small, err := cfg.OpCost(descriptor.OpAXPY, Work{Flops: 100, InStream: 1 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	big, err := cfg.OpCost(descriptor.OpAXPY, Work{Flops: 100, InStream: 2 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	if big.Time <= small.Time {
		t.Error("more traffic must cost more time")
	}
	// Compute-bound op: time tracks flops.
	c1, _ := cfg.OpCost(descriptor.OpFFT, Work{Flops: 1e9})
	c2, _ := cfg.OpCost(descriptor.OpFFT, Work{Flops: 2e9})
	if c2.Time <= c1.Time {
		t.Error("more flops must cost more time when compute bound")
	}
	if _, err := cfg.OpCost(descriptor.OpInvalid, Work{}); err == nil {
		t.Error("invalid opcode must fail")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := MEALibConfig()
	bad.StreamEfficiency = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("stream efficiency > 1 must fail")
	}
	bad2 := MEALibConfig()
	bad2.Tiles = 0
	if err := bad2.Validate(); err == nil {
		t.Error("zero tiles must fail")
	}
	bad3 := MEALibConfig()
	bad3.DRAM = nil
	if err := bad3.Validate(); err == nil {
		t.Error("missing DRAM must fail")
	}
	if _, err := NewLayer(bad3); err == nil {
		t.Error("NewLayer must validate")
	}
	bad4 := MEALibConfig()
	bad4.ELinkBit = -8e-12
	if err := bad4.Validate(); err == nil {
		t.Error("negative link energy must fail")
	}
}

func TestExecuteErrorsSurface(t *testing.T) {
	r := newRig(t)
	d := &descriptor.Descriptor{}
	// AXPY pointing at unmapped memory.
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: 16, Alpha: 1, X: 0x1, Y: 0x2, IncX: 1, IncY: 1}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	base := r.alloc(int(d.Size()))
	if err := d.Encode(r.space, base); err != nil {
		t.Fatal(err)
	}
	if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
		t.Fatal(err)
	}
	if _, err := r.layer.Run(r.space, base); err == nil {
		t.Error("unmapped buffer access must fail")
	}
}
