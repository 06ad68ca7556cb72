package accel

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Windowed lowering (plan.go): descriptors of more than planWindow nodes
// run as consecutive windows. These tests drive nests of three and more
// windows and require what the single-window differentials require.

// cdotcNest is the STAP inner-product LOOP (apps/stap.InnerProducts): a
// 3-level nest of length-n complex dots over (pair, steering vector, cell).
// The y operand is read with stride `cells`, so the reads of neighbouring
// cells interleave and the dependence scoreboard splits them finely.
func cdotcNest(tb testing.TB, pairs, sv, cells, n int, w, y, out phys.Addr) *descriptor.Descriptor {
	tb.Helper()
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(uint32(pairs), uint32(sv), uint32(cells)); err != nil {
		tb.Fatal(err)
	}
	const elem = 8
	if err := d.AddComp(descriptor.OpDOT, DotArgs{
		N: int64(n), Complex: true, X: w, Y: y, Out: out, IncX: 1, IncY: int64(cells),
		LoopStrideX:   Strides{0, int64(elem * sv * n), int64(elem * n), 0},
		LoopStrideY:   Strides{0, int64(elem * n * cells), 0, elem},
		LoopStrideOut: Strides{0, int64(elem * sv * cells), int64(elem * cells), elem},
	}.Params()); err != nil {
		tb.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d
}

// waveLog is a WaveHooks that records what it is told and checks the
// numbering contract: windows announce their waves before running them,
// wave numbers run on across windows, and only the last says more=false.
type waveLog struct {
	mu        sync.Mutex
	t         *testing.T
	announced int // waves announced so far
	windows   int
	closed    bool // a window said more=false
	next      int  // the wave number expected next
	last      units.Seconds
}

func (g *waveLog) Lowered(waves [][]span.Dir, more bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		g.t.Error("a window was announced after more=false")
	}
	g.announced += len(waves)
	g.windows++
	g.closed = !more
}

func (g *waveLog) WaveStart(w int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w != g.next || w >= g.announced {
		g.t.Errorf("WaveStart(%d): want wave %d of %d announced", w, g.next, g.announced)
	}
}

func (g *waveLog) WaveDone(w int, elapsed units.Seconds) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w != g.next || elapsed < g.last {
		g.t.Errorf("WaveDone(%d, %v): want wave %d at or after %v", w, elapsed, g.next, g.last)
	}
	g.next, g.last = w+1, elapsed
}

// runWindowDifferential runs the descriptor serially (Workers=1), on the
// wavefront scheduler (Workers=2) and hooked, and requires byte-identical
// arenas and deeply equal reports; the analytic evaluation of the same
// descriptor must agree with them to CloseTo. It returns the serial report.
func runWindowDifferential(t *testing.T, build func(r *testRig) *descriptor.Descriptor) *Report {
	t.Helper()
	serial, wavefront, hooked := newRigWorkers(t, 1), newRigWorkers(t, 2), newRigWorkers(t, 2)
	d := build(serial)
	info, err := serial.layer.ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	windows := (info.Nodes + planWindow - 1) / planWindow
	if windows <= 2 {
		t.Fatalf("%d nodes are %d windows, want more than 2", info.Nodes, windows)
	}
	want := serial.run(t, d)
	arena := func(r *testRig) []byte {
		b, err := r.space.ViewBytes(0x10000, int(diffArena))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	got := wavefront.run(t, build(wavefront))
	if !bytes.Equal(arena(serial), arena(wavefront)) {
		t.Error("Workers=2 arena differs from serial")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("Workers=2 report differs from serial:\n%+v\n%+v", want, got)
	}

	hd := build(hooked)
	base := hooked.alloc(int(hd.Size()))
	if err := hd.Encode(hooked.space, base); err != nil {
		t.Fatal(err)
	}
	if err := descriptor.WriteCommand(hooked.space, base, descriptor.CmdStart); err != nil {
		t.Fatal(err)
	}
	log := &waveLog{t: t}
	got, err = hooked.layer.RunHooked(hooked.space, base, log)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arena(serial), arena(hooked)) {
		t.Error("hooked arena differs from serial")
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("hooked report differs from serial:\n%+v\n%+v", want, got)
	}
	if log.windows != windows || !log.closed || log.next != info.Waves {
		t.Errorf("hooks saw %d windows (closed %v) and %d waves, want %d windows and %d waves",
			log.windows, log.closed, log.next, windows, info.Waves)
	}

	model, err := serial.layer.RunModel(d)
	if err != nil {
		t.Fatal(err)
	}
	if !units.CloseTo(float64(model.Time), float64(want.Time)) || !units.CloseTo(float64(model.Energy), float64(want.Energy)) ||
		model.Comps != want.Comps || model.NoCBytes != want.NoCBytes || model.ElidedBytes != want.ElidedBytes {
		t.Errorf("model report %+v, functional %+v", model, want)
	}
	for op, fs := range want.PerOp {
		ms := model.PerOp[op]
		if ms == nil || ms.Invocations != fs.Invocations || ms.Bytes != fs.Bytes ||
			!units.CloseTo(float64(ms.Time), float64(fs.Time)) || !units.CloseTo(float64(ms.Energy), float64(fs.Energy)) {
			t.Errorf("%v: model %+v, functional %+v", op, ms, fs)
		}
	}
	requireCompiledEqualsFresh(t, func() *testRig { return newRigWorkers(t, 2) }, planWindow, true, build)
	return want
}

func TestDifferentialWindowsCDOTCNest(t *testing.T) {
	const sv, cells, n = 8, 32, 16
	pairs := 2*planWindow/(sv*cells) + 1
	rep := runWindowDifferential(t, func(r *testRig) *descriptor.Descriptor {
		w := r.alloc(8 * pairs * sv * n)
		y := r.alloc(8 * pairs * n * cells)
		out := r.alloc(8 * pairs * sv * cells)
		storeRandC64(t, r, w, pairs*sv*n, 201)
		storeRandC64(t, r, y, pairs*n*cells, 202)
		return cdotcNest(t, pairs, sv, cells, n, w, y, out)
	})
	if want := int64(pairs * sv * cells); rep.Comps != want {
		t.Errorf("comps = %d, want %d", rep.Comps, want)
	}
}

// TestExplainPlanPastOneWindow: the CDOTC nest's iterations are independent
// (they share y read-only), so each window is one wave as wide as the
// window, and the totals are sums over the windows.
func TestExplainPlanPastOneWindow(t *testing.T) {
	const pairs, sv, cells, n = 10, 8, 32, 16
	d := cdotcNest(t, pairs, sv, cells, n, 0x10000, 0x100000, 0x200000)
	info, err := newModelLayer(t, 4).ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	nodes := pairs * sv * cells
	want := PlanInfo{Nodes: nodes, Waves: (nodes + planWindow - 1) / planWindow, MaxWidth: planWindow}
	if !reflect.DeepEqual(info, want) {
		t.Errorf("ExplainPlan = %+v, want %+v", info, want)
	}
}

// TestDifferentialWindowsProducerConsumer: a two-pass body whose second
// pass reads what the first wrote. A leading top-level pass reads the
// intermediate too, which keeps the pair unfused (two consumers) and puts
// every window boundary between the two passes of one iteration.
func TestDifferentialWindowsProducerConsumer(t *testing.T) {
	const n = 64
	iters := planWindow + 8
	rep := runWindowDifferential(t, func(r *testRig) *descriptor.Descriptor {
		xa, ya := r.alloc(4*n*iters), r.alloc(4*n*iters)
		oa := r.alloc(4 * (iters + 1))
		storeRandF32(t, r, xa, n*iters, 211)
		storeRandF32(t, r, ya, n*iters, 212)
		d := &descriptor.Descriptor{}
		add := func(op descriptor.OpCode, p descriptor.Params) {
			if err := d.AddComp(op, p); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
		}
		add(descriptor.OpDOT, DotArgs{N: n, X: xa, Y: ya, Out: oa + phys.Addr(4*iters), IncX: 1, IncY: 1}.Params())
		if err := d.AddLoop(uint32(iters)); err != nil {
			t.Fatal(err)
		}
		add(descriptor.OpAXPY, AxpyArgs{
			N: n, Alpha: 0.5, X: xa, Y: ya, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n),
		}.Params())
		add(descriptor.OpDOT, DotArgs{
			N: n, X: ya, Y: xa, Out: oa, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n), LoopStrideOut: Lin(4),
		}.Params())
		d.AddEndLoop()
		return d
	})
	if want := int64(1 + 2*iters); rep.Comps != want || rep.ElidedBytes != 0 {
		t.Errorf("comps = %d (elided %d), want %d unfused", rep.Comps, rep.ElidedBytes, want)
	}
}

// TestDifferentialWindowsCarriedChain: every iteration of an SPMV loop
// rewrites the same y, so each depends on the one before — also on the one
// that ran in the window before.
func TestDifferentialWindowsCarriedChain(t *testing.T) {
	const m, cols = 8, 8
	runWindowDifferential(t, func(r *testRig) *descriptor.Descriptor {
		rowPtr := make([]int32, m+1)
		var colIdx []int32
		for i := 0; i < m; i++ {
			colIdx = append(colIdx, int32(i), int32((3*i+1)%cols))
			rowPtr[i+1] = int32(len(colIdx))
		}
		nnz := len(colIdx)
		rpa, cia, va := r.alloc(4*(m+1)), r.alloc(4*nnz), r.alloc(4*nnz)
		xa, ya := r.alloc(4*cols), r.alloc(4*m)
		if err := r.space.StoreInt32s(rpa, rowPtr); err != nil {
			t.Fatal(err)
		}
		if err := r.space.StoreInt32s(cia, colIdx); err != nil {
			t.Fatal(err)
		}
		storeRandF32(t, r, va, nnz, 221)
		storeRandF32(t, r, xa, cols, 222)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(uint32(2*planWindow + 3)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpSPMV, SpmvArgs{
			M: m, Cols: cols, NNZ: int64(nnz), RowPtr: rpa, ColIdx: cia, Values: va, X: xa, Y: ya,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

// TestDifferentialWindowsOverlappingWrites is the shape of
// TestDifferentialOverlappingWritesFallsBack past one window: every
// iteration accumulates into the same y, and float addition makes the
// result depend on the order.
func TestDifferentialWindowsOverlappingWrites(t *testing.T) {
	const n = 32
	iters := 2*planWindow + 5
	runWindowDifferential(t, func(r *testRig) *descriptor.Descriptor {
		xa, ya := r.alloc(4*n*iters), r.alloc(4*n)
		storeRandF32(t, r, xa, n*iters, 231)
		storeRandF32(t, r, ya, n, 232)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(uint32(iters)); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
			N: n, Alpha: 1, X: xa, Y: ya, IncX: 1, IncY: 1, LoopStrideX: Lin(4 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	})
}

// TestPlanLoopDependences puts the loop shapes the per-LOOP independence
// checker used to be unit-tested on through the plan's dependence analysis:
// independent iterations share one wave, conflicting ones chain.
func TestPlanLoopDependences(t *testing.T) {
	const iters = 16
	l := newModelLayer(t, 4)
	for _, c := range []struct {
		name   string
		op     descriptor.OpCode
		params descriptor.Params
		waves  int
	}{
		{"DisjointStrides", descriptor.OpAXPY, AxpyArgs{
			N: 64, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(256), LoopStrideY: Lin(256),
		}.Params(), 1},
		// y unstridden: every iteration writes it.
		{"SharedWriteConflicts", descriptor.OpAXPY, AxpyArgs{
			N: 64, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(256),
		}.Params(), iters},
		// y shared read-only.
		{"SharedReadOK", descriptor.OpDOT, DotArgs{
			N: 64, X: 0x1000, Y: 0x9000, Out: 0xd000, IncX: 1, IncY: 1, LoopStrideX: Lin(256), LoopStrideOut: Lin(4),
		}.Params(), 1},
		// Stride smaller than the written span: iteration i+1's y overlaps i's.
		{"PartialOverlapConflicts", descriptor.OpAXPY, AxpyArgs{
			N: 64, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(256), LoopStrideY: Lin(128),
		}.Params(), iters},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := &descriptor.Descriptor{}
			if err := d.AddLoop(iters); err != nil {
				t.Fatal(err)
			}
			if err := d.AddComp(c.op, c.params); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
			d.AddEndLoop()
			info, err := l.ExplainPlan(d)
			if err != nil {
				t.Fatal(err)
			}
			if info.Nodes != iters || info.Waves != c.waves || info.MaxWidth != iters/c.waves {
				t.Errorf("ExplainPlan = %+v, want %d nodes in %d waves", info, iters, c.waves)
			}
		})
	}
}

// TestWindowWalk is the window-walk property: for random descriptors every
// window holds at most planWindow nodes (exactly that many but for the
// last), the windows' nodes concatenate to the full expansion in program
// order, and the one plan they are lowered into never grows past what a
// single window needs.
func TestWindowWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := newModelLayer(t, 1)
	for trial := 0; trial < 40; trial++ {
		d := &descriptor.Descriptor{}
		pass := func() {
			for c := 1 + rng.Intn(2); c > 0; c-- {
				if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{
					N: 16, Alpha: 1, IncX: 1, IncY: 1,
					X: phys.Addr(0x10000 + 64*rng.Intn(64)), Y: phys.Addr(0x80000 + 64*rng.Intn(64)),
					LoopStrideX: Strides{0, 0, int64(64 * rng.Intn(3)), 64}, LoopStrideY: Strides{0, 0, 64, int64(64 * rng.Intn(3))},
				}.Params()); err != nil {
					t.Fatal(err)
				}
			}
			d.AddEndPass()
		}
		for s := 1 + rng.Intn(4); s > 0; s-- {
			if rng.Intn(3) == 0 {
				pass()
				continue
			}
			if err := d.AddLoop(uint32(1+rng.Intn(40)), uint32(1+rng.Intn(40))); err != nil {
				t.Fatal(err)
			}
			for b := 1 + rng.Intn(3); b > 0; b-- {
				pass()
			}
			d.AddEndLoop()
		}
		var lw lowering
		if err := l.lower(d, planExpand, &lw); err != nil {
			t.Fatal(err)
		}
		type key struct {
			pass     *descriptor.Comp
			it       IterVec
			dispatch bool
		}
		var want []key
		for _, seg := range lw.segs {
			iters := int64(1)
			if seg.loop {
				iters = seg.counts.Total()
			}
			for idx := int64(0); idx < iters; idx++ {
				for pi, ps := range seg.passes {
					k := key{pass: &ps[0]}
					if seg.loop {
						k.it, k.dispatch = iterVecAt(seg.counts, idx), pi == len(seg.passes)-1
					}
					want = append(want, k)
				}
			}
		}
		var p plan
		var got []key
		for lw.more() {
			lw.next(&p)
			if len(p.nodes) > planWindow || (lw.more() && len(p.nodes) != planWindow) {
				t.Fatalf("trial %d: a window of %d nodes (more: %v)", trial, len(p.nodes), lw.more())
			}
			for _, nd := range p.nodes {
				got = append(got, key{&nd.pass[0], nd.it, nd.dispatch})
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: windows hold %d nodes, the expansion %d, or they differ", trial, len(got), len(want))
		}
		// append may round a capacity up, never past double.
		if most := 2 * planWindow; cap(p.nodes) > most || cap(p.order) > most || cap(p.spans) > most*2*maxOpSpans() {
			t.Fatalf("trial %d: %d nodes left a plan of cap %d nodes, %d order, %d spans",
				trial, len(want), cap(p.nodes), cap(p.order), cap(p.spans))
		}
	}
}

// BenchmarkLowerLoop reports the cost of lowering and running a nest per
// node, on both lowering paths: the STAP inner-product nest at four trip
// counts (conflict-free: edges from the template) and, as carried/, the same
// nest with a zero-stride out, every iteration storing to the one
// accumulator (a carried dependence: every window on the scoreboard, every
// wave one node). Neither figure may grow with the trip count.
func BenchmarkLowerLoop(b *testing.B) {
	const cells, n = 32, 16
	for _, sz := range []struct{ pairs, sv int }{{16, 2}, {128, 2}, {512, 2}, {512, 8}} {
		iters := sz.pairs * sz.sv * cells
		for _, carried := range []bool{false, true} {
			name := fmt.Sprintf("iters=%d", iters)
			if carried {
				name = "carried/" + name
			}
			b.Run(name, func(b *testing.B) {
				s := phys.NewSpace(1 * units.GiB)
				if _, err := s.Map(0x10000, 16*units.MiB); err != nil {
					b.Fatal(err)
				}
				l, err := NewLayer(MEALibConfig())
				if err != nil {
					b.Fatal(err)
				}
				r := &testRig{space: s, layer: l, next: 0x10000}
				w := r.alloc(8 * sz.pairs * sz.sv * n)
				y := r.alloc(8 * sz.pairs * n * cells)
				out := r.alloc(8 * iters)
				d := cdotcNest(b, sz.pairs, sz.sv, cells, n, w, y, out)
				if carried {
					p, err := d.ParamsOf(0)
					if err != nil {
						b.Fatal(err)
					}
					args, err := DecodeDotArgs(p)
					if err != nil {
						b.Fatal(err)
					}
					args.LoopStrideOut = Strides{}
					d = &descriptor.Descriptor{}
					if err := d.AddLoop(uint32(sz.pairs), uint32(sz.sv), cells); err != nil {
						b.Fatal(err)
					}
					if err := d.AddComp(descriptor.OpDOT, args.Params()); err != nil {
						b.Fatal(err)
					}
					d.AddEndPass()
					d.AddEndLoop()
				}
				info, err := l.ExplainPlan(d)
				if err != nil || (len(info.BlockedLoops) != 0) != carried {
					b.Fatalf("the nest is on the wrong lowering path: %+v, %v", info.BlockedLoops, err)
				}
				base := r.alloc(int(d.Size()))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := l.RunPlain(s, d, base); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				nodes := float64(b.N) * float64(iters)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/nodes, "ns/node")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/nodes, "allocs/node")
			})
		}
	}
}
