package accel

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

func TestExplainPlanReportsFusion(t *testing.T) {
	d := chainShape(t, newRig(t), 768, 1024, 32)
	info, err := testLayer(t, 1, true).ExplainPlan(d)
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
	info2, err := testLayer(t, 1, false).ExplainPlan(d)
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

// fftPasses is one top-level pass per (src, dst) pair: an n-point FFT.
func fftPasses(t *testing.T, n int64, pairs ...[2]phys.Addr) *descriptor.Descriptor {
	s := newShape(t)
	for _, p := range pairs {
		s.pass(ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: p[0], Dst: p[1]}.Params()})
	}
	return s.d
}

// fused is the groups the lowering fuses on the paper's configuration.
func fused(t *testing.T, d *descriptor.Descriptor) []FusedGroup {
	info, err := testLayer(t, 1, true).ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	return info.Fused
}

// TestExplainPlanFusionScopes: a producer→consumer pair fuses whether its
// passes are top-level or in one LOOP body, and passes with no handoff
// between them stay as they are.
func TestExplainPlanFusionScopes(t *testing.T) {
	const n, nin = 1024, 768
	a := phys.Addr(0x10000)
	b := a + phys.Addr(8*n*16)
	c := b + phys.Addr(8*n*16)
	fft := func(src, dst phys.Addr) ChainComp {
		return ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: src, Dst: dst}.Params()}
	}
	for _, tc := range []struct {
		name  string
		d     *descriptor.Descriptor
		want  []FusedGroup
		nodes int
	}{
		{"top-level pair", newShape(t).pass(fft(a, b)).pass(fft(b, c)).d,
			[]FusedGroup{{FirstPass: 0, Passes: 2, Ops: []string{"FFT", "FFT"}, HandoffBytes: 8 * n, Iters: 1}}, 1},
		{"loop-body pair", looped(t, 16,
			ChainComp{descriptor.OpRESMP, ResmpArgs{
				NIn: nin, NOut: n, Kind: ResmpComplex + int64(kernels.InterpLinear), Src: a, Dst: b,
				LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n),
			}.Params()},
			ChainComp{descriptor.OpFFT, FFTArgs{
				N: n, HowMany: 1, Src: b, Dst: b, LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n),
			}.Params()}),
			[]FusedGroup{{FirstPass: 0, Passes: 2, Ops: []string{"RESMP", "FFT"}, HandoffBytes: 8 * n, Iters: 16}}, 16},
		{"unrelated passes", newShape(t).pass(fft(a, b)).pass(fft(c, a)).d, nil, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			info, err := testLayer(t, 1, true).ExplainPlan(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(info.Fused, tc.want) || info.Nodes != tc.nodes {
				t.Errorf("fused %+v into %d nodes; want %+v into %d", info.Fused, info.Nodes, tc.want, tc.nodes)
			}
		})
	}
}

// TestFusionMultiConsumerNegative: an intermediate with a second consumer
// must NOT be fused — the extra reader needs the DRAM copy.
func TestFusionMultiConsumerNegative(t *testing.T) {
	const n = 1024
	a, b, c, e := phys.Addr(0x10000), phys.Addr(0x10000+8*n), phys.Addr(0x10000+16*n), phys.Addr(0x10000+24*n)
	// PASS{FFT a->b}; PASS{FFT b->c}; PASS{FFT b->e}: b has two consumers.
	if groups := fused(t, fftPasses(t, n, [2]phys.Addr{a, b}, [2]phys.Addr{b, c}, [2]phys.Addr{b, e})); len(groups) != 0 {
		t.Fatalf("multi-consumer intermediate fused: %+v", groups)
	}
	// Dropping the second consumer makes the first pair fusible again (the
	// b->c intermediate c is dead after, but b is single-consumer now).
	if groups := fused(t, fftPasses(t, n, [2]phys.Addr{a, b}, [2]phys.Addr{b, c})); len(groups) != 1 || groups[0].Passes != 2 {
		t.Fatalf("single-consumer pair did not fuse: %+v", groups)
	}
}

// TestFusionCapacitySpill: a handoff larger than the aggregate tile-local
// memory falls back to DRAM (no merge) and is reported as a spill.
func TestFusionCapacitySpill(t *testing.T) {
	l := testLayer(t, 1, true)
	// 8 MiB intermediate vs LMBytes*Tiles = 4 MiB capacity.
	const n = int64(1 << 20)
	a := phys.Addr(0x10000)
	b := a + phys.Addr(8*n)
	d := fftPasses(t, n, [2]phys.Addr{a, b}, [2]phys.Addr{b, b + phys.Addr(8*n)})
	if lmCap := int64(l.cfg.LMBytes) * int64(l.cfg.Tiles); lmCap >= 8*n {
		t.Fatalf("test premise broken: capacity %d >= intermediate %d", lmCap, 8*n)
	}
	if groups := fused(t, d); len(groups) != 0 {
		t.Fatalf("oversized handoff fused: %+v", groups)
	}
	var lw lowering
	if err := l.lower(d, planCollapse, &lw); err != nil {
		t.Fatal(err)
	}
	if lw.fusionSpills != 1 {
		t.Errorf("fusion spills = %d, want 1", lw.fusionSpills)
	}
}

// TestFusionWARNegative: a consumer that also writes memory the producer
// reads must not be fused (the chained datapaths stream concurrently).
func TestFusionWARNegative(t *testing.T) {
	const n = 1024
	a, b := phys.Addr(0x10000), phys.Addr(0x10000+8*n)
	// PASS{FFT a->b}; PASS{FFT b->a}: handoff through b matches, but the
	// consumer overwrites a while the producer is still streaming it.
	if groups := fused(t, fftPasses(t, n, [2]phys.Addr{a, b}, [2]phys.Addr{b, a})); len(groups) != 0 {
		t.Fatalf("WAR-hazardous pair fused: %+v", groups)
	}
}

// TestFusionStrideMismatchNegative: matching base addresses but different
// per-level loop strides mean later iterations hand off the wrong span, so
// the pair must stay unfused.
func TestFusionStrideMismatchNegative(t *testing.T) {
	const n = 256
	a, b, c := phys.Addr(0x10000), phys.Addr(0x10000+64*n), phys.Addr(0x10000+128*n)
	// The consumer reads b with twice the producer's stride: equal at
	// iteration 0 only.
	d := looped(t, 4,
		ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: a, Dst: b, LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n)}.Params()},
		ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: b, Dst: c, LoopStrideSrc: Lin(16 * n), LoopStrideDst: Lin(16 * n)}.Params()})
	if groups := fused(t, d); len(groups) != 0 {
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
	if groups := fused(t, looped(t, 5, chain...)); len(groups) != 0 {
		t.Errorf("fused %+v; want nothing fused", groups)
	}
}

// drawChain draws a two- or three-stage chain from data with the
// generator's entropy and blocks (drawArgs): a stage's operands take fresh or
// pooled buffers (gen.place), except that a read operand the size of the
// previous stage's output mostly takes that output, address and strides.
// Handoffs, WAR hazards, rereads of an intermediate and spills all come out
// of it. counts is a LOOP of 2-4 trips or, one time in two, none.
func drawChain(t *testing.T, data []byte) ([]ChainComp, descriptor.LoopCounts) {
	b := bits(data)
	g := &gen{t: t, b: &b, next: 1 << 32}
	var counts descriptor.LoopCounts
	if b.intn(2) == 1 {
		counts[descriptor.MaxLoopLevels-1] = uint32(2 + b.intn(3))
	}
	var ops []descriptor.OpCode
	for op, spec := range specs {
		if spec != nil {
			ops = append(ops, descriptor.OpCode(op))
		}
	}
	var chain []ChainComp
	var out Operand // the previous stage's output
	for n := 2 + b.intn(2); n > 0; n-- {
		// Three stages in four look for a block that can take the output.
		var a Args
		for try, want := 0, len(chain) > 0 && b.intn(4) != 0; try == 0 || want && try < 32 && !takes(a, out); try++ {
			ok := false
			for from, k := b.intn(len(ops)), 0; !ok && k < 2*len(ops); k++ {
				a, ok = drawArgs(&b, ops[(from+k)%len(ops)])
			}
			if !ok {
				t.Fatal("no accelerator of the op table drew a valid block")
			}
		}
		placed, addrs, wired := map[uint64]phys.Addr{}, make([]phys.Addr, a.NumOperands()), false
		for i, o := range a.spec.operands {
			opd := a.Operand(i)
			at, seen := placed[a.p[o.addr]]
			switch {
			case seen:
			case !wired && len(chain) > 0 && opd.Read && opd.Bytes() == out.Bytes() && b.intn(8) != 0:
				at, wired = out.Addr, true
				if off := a.spec.strideOff[o.addr]; off > 0 {
					for l, s := range out.Strides {
						a.p[off+l] = uint64(s)
					}
				}
			default:
				at = g.place(opd.Bytes())
			}
			placed[a.p[o.addr]], addrs[i] = at, at
		}
		for i, o := range a.spec.operands {
			a.p[o.addr] = descriptor.AddrField(addrs[i])
		}
		for i := 0; i < a.NumOperands(); i++ {
			if opd := a.Operand(i); opd.Write {
				out = opd
			}
		}
		chain = append(chain, ChainComp{opOf(a), a.p})
	}
	return chain, counts
}

// takes reports whether a reads an operand of out's size.
func takes(a Args, out Operand) bool {
	for i := 0; i < a.NumOperands(); i++ {
		if opd := a.Operand(i); opd.Read && opd.Bytes() == out.Bytes() {
			return true
		}
	}
	return false
}

// TestVerifyChainIsTheFusionRule: VerifyChain accepts a chain exactly when
// the lowering fuses the same comps, laid out one pass each, into one group,
// and then returns that group's handoff. The rows are this file's chains, a
// chain whose first intermediate a later stage reads again (the lowering
// keeps it in DRAM, so the chain is refused), and chains drawn from the
// generator.
func TestVerifyChainIsTheFusionRule(t *testing.T) {
	l := testLayer(t, 1, true)
	lmCap := l.cfg.LMBytes * units.Bytes(l.cfg.Tiles)
	var accepted, refused int
	check := func(name string, chain []ChainComp, counts descriptor.LoopCounts) {
		t.Helper()
		s := newShape(t)
		for _, c := range chain {
			s.pass(c)
		}
		d := s.d
		if iters := counts[descriptor.MaxLoopLevels-1]; iters > 1 {
			d = looped(t, iters, chain...)
		}
		info, err := l.ExplainPlan(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hb, verr := VerifyChain(chain, counts, lmCap)
		whole := len(info.Fused) == 1 && info.Fused[0].Passes == len(chain)
		if whole != (verr == nil) || whole && hb != info.Fused[0].HandoffBytes {
			t.Errorf("%s: VerifyChain = %v, %v; the lowering fuses %+v", name, hb, verr, info.Fused)
		}
		if whole {
			accepted++
		} else {
			refused++
		}
	}

	const n = 1024
	a, b, c, e := phys.Addr(0x10000), phys.Addr(0x10000+8*n), phys.Addr(0x10000+16*n), phys.Addr(0x10000+24*n)
	fft := func(src, dst phys.Addr) ChainComp {
		return ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: src, Dst: dst}.Params()}
	}
	resmp := ChainComp{descriptor.OpRESMP, ResmpArgs{NIn: 768, NOut: n, Kind: ResmpComplex, Src: a, Dst: b}.Params()}
	big := int64(1 << 20)
	wrapProd := AxpyArgs{N: 4, Alpha: 1, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1, LoopStrideY: Lin(1 << 62)}
	wrapCons := AxpyArgs{N: 4, Alpha: 1, X: 0x2000, Y: 0x3000, IncX: 1, IncY: 1, LoopStrideX: Lin(1 << 62)}
	loop4 := descriptor.LoopCounts{0, 0, 0, 4}
	for _, row := range []struct {
		name   string
		chain  []ChainComp
		counts descriptor.LoopCounts
	}{
		{"resmp→fft", []ChainComp{resmp, fft(b, c)}, descriptor.LoopCounts{}},
		{"disconnected", []ChainComp{resmp, fft(c, c)}, descriptor.LoopCounts{}},
		{"fft chain of three", []ChainComp{fft(a, b), fft(b, c), fft(c, e)}, descriptor.LoopCounts{}},
		{"war", []ChainComp{fft(a, b), fft(b, a)}, descriptor.LoopCounts{}},
		{"spill", []ChainComp{
			{descriptor.OpFFT, FFTArgs{N: big, HowMany: 1, Src: a, Dst: a + phys.Addr(8*big)}.Params()},
			{descriptor.OpFFT, FFTArgs{N: big, HowMany: 1, Src: a + phys.Addr(8*big), Dst: a + phys.Addr(16*big)}.Params()},
		}, descriptor.LoopCounts{}},
		{"stride mismatch", []ChainComp{
			{descriptor.OpFFT, FFTArgs{N: 256, HowMany: 1, Src: a, Dst: b, LoopStrideSrc: Lin(8 * 256), LoopStrideDst: Lin(8 * 256)}.Params()},
			{descriptor.OpFFT, FFTArgs{N: 256, HowMany: 1, Src: b, Dst: c, LoopStrideSrc: Lin(16 * 256), LoopStrideDst: Lin(16 * 256)}.Params()},
		}, loop4},
		{"extent wraps", []ChainComp{{descriptor.OpAXPY, wrapProd.Params()}, {descriptor.OpAXPY, wrapCons.Params()}},
			descriptor.LoopCounts{0, 0, 0, 5}},
		// b is the first intermediate, and the AXPY that consumes c whole
		// reads b as its x: b needs its DRAM copy.
		{"first intermediate read again", []ChainComp{fft(a, b), fft(b, c),
			{descriptor.OpAXPY, AxpyArgs{N: 2 * n, Alpha: 1, X: b, Y: c, IncX: 1, IncY: 1}.Params()}}, descriptor.LoopCounts{}},
	} {
		check(row.name, row.chain, row.counts)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 256)
		rng.Read(data)
		chain, counts := drawChain(t, data)
		check(fmt.Sprintf("drawn chain %d", i), chain, counts)
	}
	t.Logf("%d chains accepted, %d refused", accepted, refused)
	if accepted < 20 || refused < 20 {
		t.Errorf("%d chains accepted, %d refused: the rows no longer cover both verdicts", accepted, refused)
	}
}
