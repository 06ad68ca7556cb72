package accel

import (
	"math/rand"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// fuseRig builds a rig with explicit worker-pool size and fusion switch.
func fuseRig(t *testing.T, workers int, noFusion bool) *testRig {
	t.Helper()
	s := phys.NewSpace(1 * units.GiB)
	if _, err := s.Map(0x10000, 64*units.MiB); err != nil {
		t.Fatal(err)
	}
	cfg := MEALibConfig()
	cfg.Workers = workers
	cfg.NoFusion = noFusion
	l, err := NewLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{space: s, layer: l, next: 0x10000}
}

// chainShape encodes the CHAIN micro: LOOP iters { PASS{RESMP ra->ia};
// PASS{FFT ia in place} } — the producer→consumer pair the fusion pass must
// merge.
func chainShape(r *testRig, nin, n int64, iters uint32) (*descriptor.Descriptor, phys.Addr, int, error) {
	ra := r.alloc(int(8 * nin * int64(iters)))
	ia := r.alloc(int(8 * n * int64(iters)))
	src := make([]complex64, nin*int64(iters))
	rng := rand.New(rand.NewSource(41))
	for i := range src {
		src[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	if err := r.space.StoreComplex64s(ra, src); err != nil {
		return nil, 0, 0, err
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		return nil, 0, 0, err
	}
	if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
		NIn: nin, NOut: n, Kind: ResmpComplex + int64(kernels.InterpLinear),
		Src: ra, Dst: ia,
		LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n),
	}.Params()); err != nil {
		return nil, 0, 0, err
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: ia, Dst: ia,
		LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
	}.Params()); err != nil {
		return nil, 0, 0, err
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d, ia, int(n * int64(iters)), nil
}

func TestExplainPlanReportsFusion(t *testing.T) {
	r := fuseRig(t, 1, false)
	d, _, _, err := chainShape(r, 768, 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.layer.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Fused) != 1 {
		t.Fatalf("fused groups = %d, want 1 (%+v)", len(info.Fused), info.Fused)
	}
	g := info.Fused[0]
	if g.FirstPass != 0 || g.Passes != 2 {
		t.Errorf("group passes [%d,+%d), want [0,+2)", g.FirstPass, g.Passes)
	}
	if len(g.Ops) != 2 || g.Ops[0] != "RESMP" || g.Ops[1] != "FFT" {
		t.Errorf("group ops = %v, want [RESMP FFT]", g.Ops)
	}
	if g.HandoffBytes != 8*1024 {
		t.Errorf("handoff = %d B/iter, want 8192", g.HandoffBytes)
	}
	if g.Iters != 32 {
		t.Errorf("iters = %d, want 32", g.Iters)
	}
	if info.ScratchBytes != 8*1024 {
		t.Errorf("scratch residency = %d, want 8192", info.ScratchBytes)
	}
	// Fusion halves the node count: one merged pass per iteration.
	if info.Nodes != 32 {
		t.Errorf("nodes = %d, want 32", info.Nodes)
	}

	// The same descriptor with fusion off keeps both passes per iteration.
	r2 := fuseRig(t, 1, true)
	d2, _, _, err := chainShape(r2, 768, 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	info2, err := r2.layer.ExplainPlan(d2)
	if err != nil {
		t.Fatal(err)
	}
	if len(info2.Fused) != 0 {
		t.Errorf("NoFusion plan reports fused groups: %+v", info2.Fused)
	}
	if info2.Nodes != 64 {
		t.Errorf("unfused nodes = %d, want 64", info2.Nodes)
	}
}

// TestFusionMultiConsumerNegative: an intermediate with a second consumer
// must NOT be fused — the extra reader needs the DRAM copy.
func TestFusionMultiConsumerNegative(t *testing.T) {
	r := fuseRig(t, 1, false)
	const n = 1024
	a := r.alloc(8 * n)
	b := r.alloc(8 * n)
	c := r.alloc(8 * n)
	e := r.alloc(8 * n)
	d := &descriptor.Descriptor{}
	// PASS{FFT a->b}; PASS{FFT b->c}; PASS{FFT b->e}: b has two consumers.
	for _, p := range [][2]phys.Addr{{a, b}, {b, c}, {b, e}} {
		if err := d.AddComp(descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: p[0], Dst: p[1],
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
	}
	groups, err := FusionGroups(d, r.layer.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("multi-consumer intermediate fused: %+v", groups)
	}
	// Dropping the second consumer makes the first pair fusible again (the
	// b->c intermediate c is dead after, but b is single-consumer now).
	d2 := &descriptor.Descriptor{}
	for _, p := range [][2]phys.Addr{{a, b}, {b, c}} {
		if err := d2.AddComp(descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: p[0], Dst: p[1],
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d2.AddEndPass()
	}
	groups2, err := FusionGroups(d2, r.layer.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups2) != 1 || groups2[0].Passes != 2 {
		t.Fatalf("single-consumer pair did not fuse: %+v", groups2)
	}
}

// TestFusionCapacitySpill: a handoff larger than the aggregate tile-local
// memory falls back to DRAM (no merge) and is reported as a spill.
func TestFusionCapacitySpill(t *testing.T) {
	r := fuseRig(t, 1, false)
	cfg := r.layer.cfg
	// 8 MiB intermediate vs LMBytes*Tiles = 4 MiB capacity.
	const n = int64(1 << 20)
	a := phys.Addr(0x10000)
	b := a + phys.Addr(8*n)
	c := b + phys.Addr(8*n)
	d := &descriptor.Descriptor{}
	for _, p := range [][2]phys.Addr{{a, b}, {b, c}} {
		if err := d.AddComp(descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: p[0], Dst: p[1],
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
	}
	if int64(cfg.LMBytes)*int64(cfg.Tiles) >= 8*n {
		t.Fatalf("test premise broken: capacity %d >= intermediate %d", int64(cfg.LMBytes)*int64(cfg.Tiles), 8*n)
	}
	groups, err := FusionGroups(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("oversized handoff fused: %+v", groups)
	}
	var lw lowering
	if err := r.layer.lower(d, planCollapse, &lw); err != nil {
		t.Fatal(err)
	}
	if lw.fusionSpills != 1 {
		t.Errorf("fusion spills = %d, want 1", lw.fusionSpills)
	}
}

// TestFusionWARNegative: a consumer that also writes memory the producer
// reads must not be fused (the chained datapaths stream concurrently).
func TestFusionWARNegative(t *testing.T) {
	r := fuseRig(t, 1, false)
	const n = 1024
	a := r.alloc(8 * n)
	b := r.alloc(8 * n)
	d := &descriptor.Descriptor{}
	// PASS{FFT a->b}; PASS{FFT b->a}: handoff through b matches, but the
	// consumer overwrites a while the producer is still streaming it.
	for _, p := range [][2]phys.Addr{{a, b}, {b, a}} {
		if err := d.AddComp(descriptor.OpFFT, FFTArgs{
			N: n, HowMany: 1, Src: p[0], Dst: p[1],
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
	}
	groups, err := FusionGroups(d, r.layer.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("WAR-hazardous pair fused: %+v", groups)
	}
}

// TestFusionStrideMismatchNegative: matching base addresses but different
// per-level loop strides mean later iterations hand off the wrong span, so
// the pair must stay unfused.
func TestFusionStrideMismatchNegative(t *testing.T) {
	r := fuseRig(t, 1, false)
	const n = 256
	a := r.alloc(8 * n * 8)
	b := r.alloc(8 * n * 8)
	c := r.alloc(8 * n * 8)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(4); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: a, Dst: b,
		LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	// Consumer reads b with twice the producer's stride: equal at iteration
	// 0 only.
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: b, Dst: c,
		LoopStrideSrc: Lin(16 * n), LoopStrideDst: Lin(16 * n),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	groups, err := FusionGroups(d, r.layer.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("stride-mismatched pair fused: %+v", groups)
	}
}

func TestVerifyChain(t *testing.T) {
	cfg := MEALibConfig()
	lmCap := cfg.LMBytes * units.Bytes(cfg.Tiles)
	const n = 1024
	a, b, c := phys.Addr(0x1000), phys.Addr(0x1000+8*n), phys.Addr(0x1000+16*n)
	ok := []ChainComp{
		{Op: descriptor.OpRESMP, Params: ResmpArgs{
			NIn: 768, NOut: n, Kind: ResmpComplex, Src: a, Dst: b,
		}.Params()},
		{Op: descriptor.OpFFT, Params: FFTArgs{N: n, HowMany: 1, Src: b, Dst: c}.Params()},
	}
	hb, err := VerifyChain(ok, descriptor.LoopCounts{}, lmCap)
	if err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if hb != 8*n {
		t.Errorf("handoff = %v, want %d", hb, 8*n)
	}
	// Broken chain: the second stage does not consume the first's output.
	bad := []ChainComp{
		ok[0],
		{Op: descriptor.OpFFT, Params: FFTArgs{N: n, HowMany: 1, Src: c, Dst: c}.Params()},
	}
	if _, err := VerifyChain(bad, descriptor.LoopCounts{}, lmCap); err == nil {
		t.Error("disconnected chain accepted")
	}
	// Oversized chain: handoff beyond tile-local capacity.
	if _, err := VerifyChain(ok, descriptor.LoopCounts{}, 1024); err == nil {
		t.Error("oversized chain accepted")
	}
	// Single comp is not a chain.
	if _, err := VerifyChain(ok[:1], descriptor.LoopCounts{}, lmCap); err == nil {
		t.Error("single-comp chain accepted")
	}
}

// TestFusionExtentRefusesWrap: an operand whose whole-nest extent overflows
// the address arithmetic cannot be judged for fusion. Over five trips of 2^62
// bytes an AXPY's y ends 2^64 bytes past where it starts; machine arithmetic
// wraps that to nothing and judged the WAR and single-consumer rules on a
// 16-byte hull. compExtents refuses it, so fusion fuses nothing and
// VerifyChain names the stage.
func TestFusionExtentRefusesWrap(t *testing.T) {
	counts := descriptor.LoopCounts{1, 1, 1, 5}
	prod := AxpyArgs{N: 4, Alpha: 1, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1, LoopStrideY: Lin(1 << 62)}
	cons := AxpyArgs{N: 4, Alpha: 1, X: 0x2000, Y: 0x3000, IncX: 1, IncY: 1, LoopStrideX: Lin(1 << 62)}
	a, err := Bind(descriptor.OpAXPY, prod.Params())
	if err != nil {
		t.Fatal(err)
	}
	if exts, ok := compExtents(nil, a, counts); ok {
		t.Errorf("compExtents = %v, ok; want not ok: y's extent overflows", exts)
	}
	chain := []ChainComp{{Op: descriptor.OpAXPY, Params: prod.Params()}, {Op: descriptor.OpAXPY, Params: cons.Params()}}
	if _, err := VerifyChain(chain, counts, 1<<30); err == nil || !strings.Contains(err.Error(), "chain stage 0 (AXPY): unresolvable operand spans") {
		t.Errorf("VerifyChain: %v; want its unresolvable operand spans error", err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(5); err != nil {
		t.Fatal(err)
	}
	for _, c := range chain {
		if err := d.AddComp(c.Op, c.Params); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
	}
	d.AddEndLoop()
	if groups, err := FusionGroups(d, MEALibConfig()); err != nil || len(groups) != 0 {
		t.Errorf("FusionGroups = %+v, %v; want nothing fused", groups, err)
	}
}

// runDiff executes d on the rig and returns the contents of out.
func runDiff(t *testing.T, r *testRig, d *descriptor.Descriptor, out phys.Addr, elems int) ([]complex64, *Report) {
	t.Helper()
	rep := r.run(t, d)
	v, err := r.space.LoadComplex64s(out, elems)
	if err != nil {
		t.Fatal(err)
	}
	return v, rep
}

// TestDifferentialFusionChain: the CHAIN shape must produce bit-identical
// results with fusion on and off, serial and parallel, while eliding DRAM
// traffic only when fused.
func TestDifferentialFusionChain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fused := fuseRig(t, workers, false)
		plain := fuseRig(t, workers, true)
		df, outF, n, err := chainShape(fused, 768, 1024, 32)
		if err != nil {
			t.Fatal(err)
		}
		dp, outP, _, err := chainShape(plain, 768, 1024, 32)
		if err != nil {
			t.Fatal(err)
		}
		a, repF := runDiff(t, fused, df, outF, n)
		b, repP := runDiff(t, plain, dp, outP, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: fused and unfused differ at %d: %v != %v", workers, i, a[i], b[i])
			}
		}
		want := units.Bytes(2 * 8 * 1024 * 32) // store+load of the 8 KiB row, 32 iterations
		if repF.ElidedBytes != want {
			t.Errorf("workers=%d: fused elided %v, want %v", workers, repF.ElidedBytes, want)
		}
		if repP.ElidedBytes != 0 {
			t.Errorf("workers=%d: unfused elided %v, want 0", workers, repP.ElidedBytes)
		}
		if repF.Time >= repP.Time {
			t.Errorf("workers=%d: fused model time %v not below unfused %v", workers, repF.Time, repP.Time)
		}
	}
}

// stapShape is the STAP Doppler stage as separate library calls: corner
// turn (RESHP) into a scratch cube, then the batched pulse FFT over it.
func stapShape(r *testRig, pulses, chans, rng int64) (*descriptor.Descriptor, phys.Addr, int, error) {
	elems := pulses * chans * rng
	dc := r.alloc(int(8 * elems))
	scr := r.alloc(int(8 * elems))
	dop := r.alloc(int(8 * elems))
	src := make([]complex64, elems)
	rnd := rand.New(rand.NewSource(42))
	for i := range src {
		src[i] = complex(float32(rnd.NormFloat64()), float32(rnd.NormFloat64()))
	}
	if err := r.space.StoreComplex64s(dc, src); err != nil {
		return nil, 0, 0, err
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpRESHP, ReshpArgs{
		Rows: chans * rng, Cols: pulses, Elem: ElemC64, Src: dc, Dst: scr,
	}.Params()); err != nil {
		return nil, 0, 0, err
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: pulses, HowMany: chans * rng, Src: scr, Dst: dop,
	}.Params()); err != nil {
		return nil, 0, 0, err
	}
	d.AddEndPass()
	return d, dop, int(elems), nil
}

func TestDifferentialFusionSTAP(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fused := fuseRig(t, workers, false)
		plain := fuseRig(t, workers, true)
		df, outF, n, err := stapShape(fused, 16, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		dp, outP, _, err := stapShape(plain, 16, 4, 64)
		if err != nil {
			t.Fatal(err)
		}
		a, repF := runDiff(t, fused, df, outF, n)
		b, repP := runDiff(t, plain, dp, outP, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: fused and unfused differ at %d", workers, i)
			}
		}
		if repF.ElidedBytes == 0 {
			t.Errorf("workers=%d: STAP shape did not fuse", workers)
		}
		if repP.ElidedBytes != 0 {
			t.Errorf("workers=%d: unfused STAP elided %v", workers, repP.ElidedBytes)
		}
	}
}

// sarShape is SAR image formation as separate calls under a two-level loop:
// cubic range interpolation then the in-place azimuth FFT per row block.
func sarShape(r *testRig, nin, n int64, outer, inner uint32) (*descriptor.Descriptor, phys.Addr, int, error) {
	iters := int64(outer) * int64(inner)
	ra := r.alloc(int(8 * nin * iters))
	ia := r.alloc(int(8 * n * iters))
	src := make([]complex64, nin*iters)
	rnd := rand.New(rand.NewSource(43))
	for i := range src {
		src[i] = complex(float32(rnd.NormFloat64()), float32(rnd.NormFloat64()))
	}
	if err := r.space.StoreComplex64s(ra, src); err != nil {
		return nil, 0, 0, err
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(outer, inner); err != nil {
		return nil, 0, 0, err
	}
	// Two-level strides: the outer level jumps a block of inner rows.
	rstr := Strides{}
	istr := Strides{}
	rstr[2], rstr[3] = 8*nin*int64(inner), 8*nin
	istr[2], istr[3] = 8*n*int64(inner), 8*n
	if err := d.AddComp(descriptor.OpRESMP, ResmpArgs{
		NIn: nin, NOut: n, Kind: ResmpComplex + int64(kernels.InterpCubic),
		Src: ra, Dst: ia,
		LoopStrideSrc: rstr, LoopStrideDst: istr,
	}.Params()); err != nil {
		return nil, 0, 0, err
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, FFTArgs{
		N: n, HowMany: 1, Src: ia, Dst: ia,
		LoopStrideSrc: istr, LoopStrideDst: istr,
	}.Params()); err != nil {
		return nil, 0, 0, err
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d, ia, int(n * iters), nil
}

func TestDifferentialFusionSAR(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fused := fuseRig(t, workers, false)
		plain := fuseRig(t, workers, true)
		df, outF, n, err := sarShape(fused, 300, 512, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		dp, outP, _, err := sarShape(plain, 300, 512, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		a, repF := runDiff(t, fused, df, outF, n)
		b, repP := runDiff(t, plain, dp, outP, n)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: fused and unfused differ at %d", workers, i)
			}
		}
		if repF.ElidedBytes == 0 {
			t.Errorf("workers=%d: SAR shape did not fuse", workers)
		}
		if repP.ElidedBytes != 0 {
			t.Errorf("workers=%d: unfused SAR elided %v", workers, repP.ElidedBytes)
		}
	}
}

// TestDifferentialFusionModelPath: the analytic interpreter must agree with
// itself across the fusion switch on everything except time/energy/traffic,
// and both switches must produce the same per-op work accounting.
func TestDifferentialFusionModelPath(t *testing.T) {
	fused := fuseRig(t, 1, false)
	plain := fuseRig(t, 1, true)
	df, _, _, err := chainShape(fused, 768, 1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	repF, err := fused.layer.RunModel(df)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := plain.layer.RunModel(df)
	if err != nil {
		t.Fatal(err)
	}
	if repF.Comps != repP.Comps {
		t.Errorf("model comps differ: %d vs %d", repF.Comps, repP.Comps)
	}
	for op, st := range repP.PerOp {
		fst := repF.PerOp[op]
		if fst == nil || fst.Invocations != st.Invocations ||
			f64bits(float64(fst.Flops)) != f64bits(float64(st.Flops)) || fst.Bytes != st.Bytes {
			t.Errorf("model per-op %v accounting differs: %+v vs %+v", op, fst, st)
		}
	}
	if repF.ElidedBytes == 0 || repP.ElidedBytes != 0 {
		t.Errorf("model elision: fused %v, unfused %v", repF.ElidedBytes, repP.ElidedBytes)
	}
	if repF.Time >= repP.Time {
		t.Errorf("fused model time %v not below unfused %v", repF.Time, repP.Time)
	}
}
