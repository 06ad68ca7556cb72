package accel

import (
	"math/rand"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/span"
)

// Nest templates (template.go): the verdict on a LOOP is checked against a
// brute-force oracle, the edges it stands in for against the scoreboard, and
// the nests the applications and the benchmark launch are pinned to the
// verdict they get today.

// randomNest builds a LOOP of 1-3 iterating levels (counts 2-6, sometimes a
// level of 1 between them) around 1-3 body passes whose operands come from a
// small pool of 64-byte buffers, so that comps share bytes. A buffer's
// strides are zero, a tiling in a random level order with random signs and
// gaps, smaller than the footprint, or arbitrary; a buffer may also sit
// half-way into another one. Passes are single comps, chained pairs, or a
// RESMP feeding an in-place FFT that fusion may merge.
func randomNest(t testing.TB, rng *rand.Rand) *descriptor.Descriptor {
	t.Helper()
	const foot = 64
	counts := make([]uint32, 1+rng.Intn(3))
	for i := range counts {
		counts[i] = uint32(2 + rng.Intn(5))
	}
	if len(counts) > 1 && rng.Intn(4) == 0 {
		counts[rng.Intn(len(counts))] = 1
	}
	level := func(i int) int { return descriptor.MaxLoopLevels - len(counts) + i }
	type buffer struct {
		base    phys.Addr
		strides Strides
	}
	pool := make([]buffer, 2+rng.Intn(3))
	for i := range pool {
		b := &pool[i]
		b.base = phys.Addr(0x400000 + 0x100000*i)
		if i > 0 && rng.Intn(5) == 0 {
			b.base = pool[i-1].base + foot/2
		}
		switch rng.Intn(7) {
		case 0: // shared by every iteration
		case 1, 2, 3, 4:
			step := int64(foot) << rng.Intn(2)
			for _, i := range rng.Perm(len(counts)) {
				b.strides[level(i)] = step * int64(1-2*rng.Intn(2))
				step *= int64(counts[i]) + int64(rng.Intn(2))
			}
			if rng.Intn(6) == 0 { // one level falls short
				b.strides[level(rng.Intn(len(counts)))] /= 2
			}
		case 5:
			b.strides[level(len(counts)-1)] = foot / 2
		default:
			for i := range counts {
				b.strides[level(i)] = int64(8 * (rng.Intn(49) - 24))
			}
		}
	}
	pick := func() buffer { return pool[rng.Intn(len(pool))] }
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(counts...); err != nil {
		t.Fatal(err)
	}
	comp := func(op descriptor.OpCode, p descriptor.Params) {
		if err := d.AddComp(op, p); err != nil {
			t.Fatal(err)
		}
	}
	axpy := func() {
		x, y := pick(), pick()
		comp(descriptor.OpAXPY, AxpyArgs{N: foot / 4, Alpha: 0.5, X: x.base, Y: y.base, IncX: 1, IncY: 1,
			LoopStrideX: x.strides, LoopStrideY: y.strides}.Params())
	}
	dot := func() {
		x, y, out := pick(), pick(), pick()
		comp(descriptor.OpDOT, DotArgs{N: foot / 4, X: x.base, Y: y.base, Out: out.base + phys.Addr(4*rng.Intn(foot/4)), IncX: 1, IncY: 1,
			LoopStrideX: x.strides, LoopStrideY: y.strides, LoopStrideOut: out.strides}.Params())
	}
	for passes := 1 + rng.Intn(3); passes > 0; passes-- {
		switch rng.Intn(4) {
		case 0:
			axpy()
		case 1:
			dot()
		case 2: // chained
			axpy()
			dot()
		default: // fusible: the FFT consumes the RESMP's row whole
			src, dst := pick(), pick()
			comp(descriptor.OpRESMP, ResmpArgs{NIn: foot / 8, NOut: foot / 8, Kind: ResmpComplex + int64(kernels.InterpLinear),
				Src: src.base, Dst: dst.base, LoopStrideSrc: src.strides, LoopStrideDst: dst.strides}.Params())
			d.AddEndPass()
			comp(descriptor.OpFFT, FFTArgs{N: foot / 8, HowMany: 1, Src: dst.base, Dst: dst.base,
				LoopStrideSrc: dst.strides, LoopStrideDst: dst.strides}.Params())
		}
		d.AddEndPass()
	}
	d.AddEndLoop()
	return d
}

// lowerNest lowers a one-LOOP descriptor on l and returns its verdict.
func lowerNest(t testing.TB, l *Layer, d *descriptor.Descriptor) (*lowering, *nest) {
	t.Helper()
	lw := new(lowering)
	if err := l.lower(d, planExpand, lw); err != nil {
		t.Fatal(err)
	}
	if len(lw.segs) != 1 || lw.segs[0].nest == nil {
		t.Fatalf("a LOOP of %d iterations lowered to %d segments, or was not judged", lw.segs[0].counts.Total(), len(lw.segs))
	}
	return lw, lw.segs[0].nest
}

// iterationsConflict is the oracle: every comp's footprint re-derived from
// its parameters at every iteration (Args.appendIO, not the template), and
// every pair of distinct iterations tested for a shared byte somebody writes.
func iterationsConflict(t testing.TB, d *descriptor.Descriptor) bool {
	t.Helper()
	segs, err := segmentsOf(d)
	if err != nil {
		t.Fatal(err)
	}
	var its [][]span.Dir
	for idx := int64(0); idx < segs[0].counts.Total(); idx++ {
		var spans []span.Dir
		for _, pass := range segs[0].passes {
			for _, in := range pass {
				a, err := Bind(in.Op, in.Params)
				if err != nil {
					t.Fatal(err)
				}
				ok := false
				if spans, ok = a.appendIO(spans, iterVecAt(segs[0].counts, idx)); !ok {
					t.Fatal("a generated operand wraps the address space")
				}
			}
		}
		its = append(its, spans)
	}
	for i := range its {
		for j := i + 1; j < len(its); j++ {
			if span.Overlap(its[i], its[j]) {
				return true
			}
		}
	}
	return false
}

// TestNestVerdictNeverOptimistic: "conflict-free" is never the verdict on a
// nest two iterations of which conflict. The verdict may be conservative;
// the counts at the end show it is not vacuously so.
func TestNestVerdictNeverOptimistic(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	fused, unfused := fuseRig(t, 1, false).layer, fuseRig(t, 1, true).layer
	free, proven, conflicting := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		d := randomNest(t, rng)
		conflict := iterationsConflict(t, d)
		for _, l := range []*Layer{fused, unfused} {
			_, n := lowerNest(t, l, d)
			if n.rule == ruleNone && conflict {
				t.Fatalf("trial %d: verdict conflict-free, but two iterations conflict:\n%s", trial, d.Disassemble())
			}
		}
		_, n := lowerNest(t, fused, d)
		switch {
		case conflict:
			conflicting++
		case n.rule == ruleNone:
			free, proven = free+1, proven+1
		default:
			free++
		}
	}
	t.Logf("400 nests: %d conflict, %d do not, %d of those proven", conflicting, free, proven)
	if conflicting < 80 || proven < 80 || proven > free {
		t.Errorf("the generator is lopsided: %d conflicting nests, %d of %d conflict-free ones proven", conflicting, proven, free)
	}
}

// nodesOf lowers the window the cursor names on the dependence scoreboard
// whatever the verdict on its nest — the materialised nodes ranges stand for
// — and returns the cursor after it.
func nodesOf(lw lowering, q *plan) lowering {
	if n := lw.segs[lw.seg].nest; n != nil {
		defer func(rule blockRule) { n.rule = rule }(n.rule)
		n.rule = ruleBarrier
	}
	lw.next(q)
	return lw
}

// templateMatchesScoreboard cuts the nest into windows of `window` pass
// instances and reports whether, in every one, each pass instance the ranges
// next lowered stand for is the one the scoreboard path materialises at its
// program-order position, in the same wave, and the window's counts —
// instances, edges, waves, widest wave — are the materialised ones. A window
// must be lowered as ranges exactly when the nest is conflict-free. It also
// returns the materialised counts summed over the windows, as ExplainPlan
// sums them, and how many windows of ranges started inside an iteration.
func templateMatchesScoreboard(lw *lowering, window int) (_ PlanInfo, mid int, ok bool) {
	lw.window = window
	var info PlanInfo
	var p, q plan
	for lw.more() {
		cur := nodesOf(*lw, &q)
		lw.next(&p)
		if p.first > 0 {
			mid++
		}
		info.Nodes += q.size
		info.Edges += q.edges
		info.Waves += len(q.waves)
		info.MaxWidth = max(info.MaxWidth, q.maxWidth())
		if (p.body != nil) != (lw.segs[0].nest.rule == ruleNone) || cur.seg != lw.seg || cur.pass != lw.pass || cur.iter != lw.iter ||
			p.size != q.size || p.edges != q.edges || len(p.waves) != len(q.waves) || p.maxWidth() != q.maxWidth() {
			return info, mid, false
		}
		for k := range p.nodes {
			nd := &p.nodes[k]
			for j := range int(nd.n) {
				was := &q.nodes[int(nd.ord)+j*max(1, len(p.body))]
				if was.tmpl != nd.tmpl || was.iter != nd.iter+int64(j) || was.wave != nd.wave {
					return info, mid, false
				}
			}
		}
	}
	return info, mid, true
}

// TestTemplateDepsMatchScoreboard: whenever the verdict is conflict-free, a
// window lowered as ranges — windows of every small size, so most start and
// end mid-iteration, and of planWindow — puts every pass instance in the wave
// the scoreboard gives it on the materialised nodes, and ExplainPlan reports
// the materialised counts. The control at the end shows the test can tell: a
// zero-stride write forced to "conflict-free" does not match.
func TestTemplateDepsMatchScoreboard(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	layers := []*Layer{fuseRig(t, 1, false).layer, fuseRig(t, 1, true).layer}
	checked, edges, mid := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		d := randomNest(t, rng)
		for _, l := range layers {
			lw, n := lowerNest(t, l, d)
			if n.rule != ruleNone {
				continue
			}
			checked++
			for _, deps := range n.deps {
				edges += len(deps)
			}
			for _, window := range []int{1, 2, 3, 4, 5, 6, 7, planWindow} {
				lw, _ = lowerNest(t, l, d)
				sum, m, ok := templateMatchesScoreboard(lw, window)
				if mid += m; !ok {
					t.Fatalf("trial %d, windows of %d: the ranges differ from the scoreboard's nodes:\n%s", trial, window, d.Disassemble())
				}
				if window != planWindow {
					continue
				}
				info, err := l.ExplainPlan(d)
				if err != nil {
					t.Fatal(err)
				}
				if info.Nodes != sum.Nodes || info.Edges != sum.Edges || info.Waves != sum.Waves || info.MaxWidth != sum.MaxWidth {
					t.Fatalf("trial %d: ExplainPlan = %+v, the materialised nodes %+v", trial, info, sum)
				}
			}
		}
	}
	t.Logf("%d conflict-free lowerings checked, %d intra-iteration edges among them, %d windows started inside an iteration", checked, edges, mid)
	if checked < 100 || edges < 100 || mid < 100 {
		t.Errorf("only %d conflict-free lowerings with %d intra-iteration edges, %d windows started inside an iteration: the generator proves too little",
			checked, edges, mid)
	}

	// Every iteration accumulates into the same y.
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(8); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: 16, Alpha: 1, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(64)}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	lw, n := lowerNest(t, layers[0], d)
	if _, _, ok := templateMatchesScoreboard(lw, 3); n.rule != ruleTiling || !ok {
		t.Fatalf("a zero-stride write: rule %d, want %d and the scoreboard's own nodes", n.rule, ruleTiling)
	}
	lw, n = lowerNest(t, layers[0], d)
	n.rule, n.depth = ruleNone, []int32{0}
	if _, _, ok := templateMatchesScoreboard(lw, 3); ok {
		t.Error("a zero-stride write forced to conflict-free still matched the scoreboard: the comparison proves nothing")
	}
}

// TestAppNestsAreConflictFree pins the verdict on the nests the applications
// and bench/'s loop_kernels launch, restated here at their sizes: a change
// that drops one of them back onto the scoreboard fails this test, not only
// a benchmark. SPMV and RESHP have no stride fields, so every iteration
// rewrites the same bytes and they stay a serial chain on the scoreboard.
func TestAppNestsAreConflictFree(t *testing.T) {
	looped := func(iters uint32, comps ...ChainComp) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		for _, c := range comps {
			if err := d.AddComp(c.Op, c.Params); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
		}
		d.AddEndLoop()
		return d
	}
	const a, b, c = 0x1000000, 0x2000000, 0x3000000
	sarRow := func(nin, n int64) (resmp, fft ChainComp) {
		return ChainComp{descriptor.OpRESMP, ResmpArgs{NIn: nin, NOut: n, Kind: ResmpComplex + int64(kernels.InterpLinear),
				Src: a, Dst: b, LoopStrideSrc: Lin(8 * nin), LoopStrideDst: Lin(8 * n)}.Params()},
			ChainComp{descriptor.OpFFT, FFTArgs{N: n, HowMany: 1, Src: b, Dst: b, LoopStrideSrc: Lin(8 * n), LoopStrideDst: Lin(8 * n)}.Params()}
	}
	// apps/sar.FormImageChained: both stages in one pass per row.
	sar := &descriptor.Descriptor{}
	if err := sar.AddLoop(1024); err != nil {
		t.Fatal(err)
	}
	resmp, fft := sarRow(1024, 1024)
	for _, c := range []ChainComp{resmp, fft} {
		if err := sar.AddComp(c.Op, c.Params); err != nil {
			t.Fatal(err)
		}
	}
	sar.AddEndPass()
	sar.AddEndLoop()
	chainResmp, chainFFT := sarRow(768, 1024)
	for _, tc := range []struct {
		name    string
		d       *descriptor.Descriptor
		blocked string // "": conflict-free
	}{
		// apps/stap.InnerProducts at stap.Small(): 512 pairs, 8 steering vectors, 32 cells.
		{"STAP", cdotcNest(t, 512, 8, 32, 16, a, b, c), ""},
		{"SAR", sar, ""},
		{"AXPY", looped(64, ChainComp{descriptor.OpAXPY, AxpyArgs{N: 4096, Alpha: 0.5, X: a, Y: b, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * 4096), LoopStrideY: Lin(4 * 4096)}.Params()}), ""},
		{"DOT", looped(64, ChainComp{descriptor.OpDOT, DotArgs{N: 4096, X: a, Y: b, Out: c, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * 4096), LoopStrideOut: Lin(4)}.Params()}), ""},
		{"GEMV", looped(32, ChainComp{descriptor.OpGEMV, GemvArgs{M: 128, N: 128, Alpha: 1, A: a, Lda: 128, X: b, Y: c,
			LoopStrideA: Lin(4 * 128 * 128), LoopStrideY: Lin(4 * 128)}.Params()}), ""},
		{"SPMV", looped(8, ChainComp{descriptor.OpSPMV, SpmvArgs{M: 4096, Cols: 4096, NNZ: 16384,
			RowPtr: a, ColIdx: a + 0x100000, Values: a + 0x200000, X: b, Y: c}.Params()}), "[0x000003000000,+16KiB): written bytes"},
		{"RESMP", looped(32, ChainComp{descriptor.OpRESMP, ResmpArgs{NIn: 4096, NOut: 8192, Kind: int64(kernels.InterpCubic), Src: a, Dst: b,
			LoopStrideSrc: Lin(4 * 4096), LoopStrideDst: Lin(4 * 8192)}.Params()}), ""},
		{"FFT", looped(32, ChainComp{descriptor.OpFFT, FFTArgs{N: 1024, HowMany: 4, Src: a, Dst: b,
			LoopStrideSrc: Lin(8 * 1024 * 4), LoopStrideDst: Lin(8 * 1024 * 4)}.Params()}), ""},
		{"CHAIN", looped(32, chainResmp, chainFFT), ""},
		{"RESHP", looped(4, ChainComp{descriptor.OpRESHP, ReshpArgs{Rows: 256, Cols: 256, Elem: ElemF32, Src: a, Dst: b}.Params()}),
			"[0x000002000000,+256KiB): written bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newModelLayer(t, 2)
			_, n := lowerNest(t, l, tc.d)
			info, err := l.ExplainPlan(tc.d)
			if err != nil {
				t.Fatal(err)
			}
			if tc.blocked == "" {
				if n.rule != ruleNone || len(info.BlockedLoops) != 0 {
					t.Fatalf("the nest fell back to the scoreboard: %+v", info.BlockedLoops)
				}
				return
			}
			iters := tc.d.Instrs[0].Counts.Total()
			if len(info.BlockedLoops) != 1 || info.BlockedLoops[0].Iters != iters || info.BlockedLoops[0].FirstPass != 0 ||
				!strings.HasPrefix(info.BlockedLoops[0].Why, tc.blocked) {
				t.Errorf("BlockedLoops = %+v, want the one LOOP of %d iterations blocked because %q", info.BlockedLoops, iters, tc.blocked)
			}
			if info.Waves != int(iters) || info.MaxWidth != 1 {
				t.Errorf("%d waves of width %d, want a serial chain of %d", info.Waves, info.MaxWidth, iters)
			}
		})
	}
}

// TestUndecodableCompIsABarrier: a comp whose parameter block does not bind
// makes every instance of its pass a barrier and the LOOP "unknown", and a
// launch returns Bind's error when it reaches that comp — after the comps
// before it have run, as when every node bound its own comps.
func TestUndecodableCompIsABarrier(t *testing.T) {
	const n, iters = 16, 4
	r := newRigWorkers(t, 2)
	xa, ya, za := r.alloc(4*n*iters), r.alloc(4*n*iters), r.alloc(4*n*iters)
	storeRandF32(t, r, xa, n*iters, 241)
	axpy := func(y phys.Addr) descriptor.Params {
		return AxpyArgs{N: n, Alpha: 1, X: xa, Y: y, IncX: 1, IncY: 1, LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		t.Fatal(err)
	}
	for _, c := range []ChainComp{{descriptor.OpAXPY, axpy(ya)}, {}, {descriptor.OpAXPY, axpy(za)}, {descriptor.OpDOT, descriptor.Params{1}}} {
		if c.Op == descriptor.OpInvalid {
			d.AddEndPass()
		} else if err := d.AddComp(c.Op, c.Params); err != nil {
			t.Fatal(err)
		}
	}
	d.AddEndPass()
	d.AddEndLoop()

	info, err := r.layer.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.BlockedLoops) != 1 || info.BlockedLoops[0].Why != ruleText[ruleBarrier] || info.Edges != 10 || info.Waves != 2*iters || info.MaxWidth != 1 {
		t.Errorf("ExplainPlan = %+v, want one LOOP blocked by a barrier pass, 10 edges and %d waves of one node", info, 2*iters)
	}
	_, want := Bind(descriptor.OpDOT, descriptor.Params{1})
	if _, err := r.layer.RunModel(d); err == nil || err.Error() != want.Error() {
		t.Errorf("RunModel = %v, want %v", err, want)
	}
	base := r.alloc(int(d.Size()))
	if _, err := r.layer.RunPlain(r.space, d, base); err == nil || err.Error() != want.Error() {
		t.Fatalf("Run = %v, want %v", err, want)
	}
	// Iteration zero ran its first pass and the comp before the bad one;
	// nothing of iteration one ran.
	x, _ := r.space.LoadFloat32s(xa, 2*n)
	y, _ := r.space.LoadFloat32s(ya, 2*n)
	z, _ := r.space.LoadFloat32s(za, 2*n)
	for i := 0; i < n; i++ {
		if y[i] != x[i] || z[i] != x[i] || y[n+i] != 0 || z[n+i] != 0 {
			t.Fatalf("element %d: y %v %v, z %v %v, x %v: want iteration zero's two AXPYs and nothing else", i, y[i], y[n+i], z[i], z[n+i], x[i])
		}
	}
}
