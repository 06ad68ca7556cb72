package mealibrt

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// f32s allocates a buffer of the session holding vs.
func f32s(t *testing.T, s *Session, vs ...float32) *Buffer {
	t.Helper()
	b, err := s.MemAlloc(units.Bytes(4 * len(vs)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StoreFloat32s(0, vs); err != nil {
		t.Fatal(err)
	}
	return b
}

func session(t *testing.T, r *Runtime, name string) *Session {
	t.Helper()
	s, err := r.NewSession(SessionConfig{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFreedBufferStalesPlan: a plan is launchable only while its footprint
// passes the namespace check it passed at install. Session a frees a buffer
// its plan names, session b is handed the same physical range, and a's plan
// must be refused with ErrPlanStale instead of writing into b's memory (the
// launch-time verifier only asks whether the bytes are initialized, and b
// initialized them).
func TestFreedBufferStalesPlan(t *testing.T) {
	r := newRuntime(t)
	a, b := session(t, r, "a"), session(t, r, "b")
	x, z, y := f32s(t, a, 1, 1, 1, 1), f32s(t, a, 1, 1, 1, 1), f32s(t, a, 1, 1, 1, 1)
	p, other := axpyOver(t, a, x, y, 4, 1), axpyOver(t, a, x, z, 4, 1)
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	freed := y.PA()
	if err := a.MemFree(y); err != nil {
		t.Fatal(err)
	}
	theirs := f32s(t, b, 1, 1, 1, 1)
	if theirs.PA() != freed {
		t.Fatalf("b's buffer landed at %v, not in the range a freed (%v): the test needs the allocator to recycle it", theirs.PA(), freed)
	}
	_, err := p.Execute(context.Background())
	got, lerr := theirs.LoadFloat32s(0, 4)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if !errors.Is(err, ErrPlanStale) || !reflect.DeepEqual(got, []float32{1, 1, 1, 1}) {
		t.Fatalf("Execute of a plan over a freed buffer: error %v, and session b's buffer reads %v; want ErrPlanStale and [1 1 1 1]", err, got)
	}
	if _, err := p.Submit(context.Background()); !errors.Is(err, ErrPlanStale) {
		t.Errorf("Submit of the stale plan: %v, want ErrPlanStale", err)
	}
	if _, err := p.Accept(); !errors.Is(err, ErrPlanStale) {
		t.Errorf("Accept of the stale plan: %v, want ErrPlanStale", err)
	}
	// A plan of the same session that does not name the freed buffer is
	// untouched, and the stale one can still be destroyed.
	if _, err := other.Execute(context.Background()); err != nil {
		t.Errorf("a plan over live buffers: %v", err)
	}
	if err := p.Destroy(); err != nil {
		t.Errorf("Destroy of the stale plan: %v", err)
	}
	// The default tenant's namespace is the whole space: its plans are never
	// staled, and the launch-time verifier answers for the freed range.
	dx, dy := f32s(t, r.def, 1, 1), f32s(t, r.def, 1, 1)
	dp := axpyOver(t, r.def, dx, dy, 2, 1)
	if err := r.MemFree(dy); err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Execute(context.Background()); err == nil || errors.Is(err, ErrPlanStale) || !strings.Contains(err.Error(), "uninitialized buffer") {
		t.Errorf("default tenant's plan over a freed buffer: %v, want the verifier's uninitialized-buffer rejection", err)
	}
}

// TestPlanIsImmutableAfterInstall: what is verified is what runs, and both
// are the plan's own. The caller mutates its descriptor and its parameter
// block after install; the installed plan's next launch must be the launch it
// was before.
func TestPlanIsImmutableAfterInstall(t *testing.T) {
	r := newRuntime(t)
	x, y := f32s(t, r.def, 1, 2, 3, 4), f32s(t, r.def, 0, 0, 0, 0)
	params := accel.AxpyArgs{N: 4, Alpha: 2, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params()
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, params); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	launch := func() (*Invocation, []float32) {
		t.Helper()
		if err := y.StoreFloat32s(0, []float32{0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		inv, err := p.Execute(context.Background())
		if err != nil {
			t.Fatalf("Execute of the unchanged installed plan: %v", err)
		}
		out, err := y.LoadFloat32s(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		return inv, out
	}
	size := p.Descriptor().Size()
	launch() // the first launch also flushes the stores that set the buffers up
	inv1, out1 := launch()

	// The caller goes on using its descriptor: another comp over a buffer
	// nobody initialized, the first instruction overwritten, and the
	// parameter block it built the plan from rewritten in place.
	cold, err := r.MemAlloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 4, Alpha: 1, X: cold.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.Instrs[0] = descriptor.Instruction{Kind: descriptor.KindEndPass}
	params[0], params[1] = 1, descriptor.F32Field(100)

	inv2, out2 := launch()
	if !reflect.DeepEqual(out1, []float32{2, 4, 6, 8}) || !reflect.DeepEqual(out1, out2) {
		t.Errorf("y after the launches: %v then %v, want [2 4 6 8] twice", out1, out2)
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if !reflect.DeepEqual(inv1.Report, inv2.Report) || bits(float64(inv1.OverheadTime)) != bits(float64(inv2.OverheadTime)) ||
		bits(float64(inv1.OverheadEnergy)) != bits(float64(inv2.OverheadEnergy)) ||
		!units.CloseTo(float64(inv1.HostIdleEnergy), float64(inv2.HostIdleEnergy)) {
		t.Errorf("the invocation changed with the caller's descriptor:\n%+v %+v\n%+v %+v", inv1, inv1.Report, inv2, inv2.Report)
	}
	if got := p.Descriptor().Size(); got != size || p.Descriptor().Comps() != 1 {
		t.Errorf("the plan's descriptor changed with the caller's: %v with %d comps, was %v with 1", got, p.Descriptor().Comps(), size)
	}
}

// TestStaleImageNeverRuns: the layer still fetches from memory. With a byte
// of the installed image flipped through Runtime.Space, a launch does what a
// run that decodes those bytes does (the modified program's result, or its
// error) and never what the cached program would.
func TestStaleImageNeverRuns(t *testing.T) {
	// Byte offsets into the one-comp AXPY image: the control region is 32
	// bytes, the COMP and ENDPASS entries 32 each, then the parameter block
	// (a 4-byte field count, then 8-byte fields: N, alpha, ...).
	const alphaField = 32 + 2*32 + 4 + 8
	for name, tc := range map[string]struct {
		off   int
		want  []float32
		wantE string
	}{
		"alpha 2 becomes 0":   {off: alphaField + 3, want: []float32{0, 0, 0, 0}},
		"the opcode is unset": {off: 32 + 1, wantE: "invalid opcode"},
		"the magic is gone":   {off: 0, wantE: "bad magic"},
	} {
		r := newRuntime(t)
		x, y := f32s(t, r.def, 1, 2, 3, 4), f32s(t, r.def, 0, 0, 0, 0)
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 4, Alpha: 2, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		p, err := r.AccPlanDescriptor(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := y.StoreFloat32s(0, []float32{0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		img, err := r.Space().ViewBytes(p.basePA, int(d.Size()))
		if err != nil {
			t.Fatal(err)
		}
		if name == "alpha 2 becomes 0" {
			img[tc.off] = 0 // 2.0f is 0x40000000: clearing the top byte leaves 0.0f
		} else {
			img[tc.off] ^= 0xff
		}
		_, err = p.Execute(context.Background())
		got, lerr := y.LoadFloat32s(0, 4)
		if lerr != nil {
			t.Fatal(lerr)
		}
		switch {
		case tc.wantE != "" && (err == nil || !strings.Contains(err.Error(), tc.wantE)):
			t.Errorf("%s: Execute returned %v, want an error mentioning %q", name, err, tc.wantE)
		case tc.wantE != "" && !reflect.DeepEqual(got, []float32{0, 0, 0, 0}):
			t.Errorf("%s: the launch failed with %v and still wrote y = %v", name, err, got)
		case tc.wantE == "" && (err != nil || !reflect.DeepEqual(got, tc.want)):
			t.Errorf("%s: Execute returned %v and y = %v, want the modified program's %v (the cached program's is [2 4 6 8])", name, err, got, tc.want)
		}
	}
}

// TestExecuteFixedCost gates what a launch of an installed plan may cost: a
// bounded number of allocations, and no compile. Install is the only compile,
// for an ordinary plan and for every chunk of an out-of-core one.
func TestExecuteFixedCost(t *testing.T) {
	ctx := context.Background()
	r := newRuntime(t)
	p, _, _ := sessAxpyPlan(t, r.def, 0, 256)
	if _, err := p.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := p.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}); avg > 5 {
		t.Errorf("Execute of a warm one-comp plan allocates %.1f times, want at most 5", avg)
	}

	cfg := oocConfig(128 * units.KiB)
	cfg.Tracer = telemetry.New()
	traced, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkQuiescent(t, traced)
	compiles := traced.Tracer().Metrics().Counter("accel.compiles")
	before := compiles.Value()
	p, _, _ = sessAxpyPlan(t, traced.def, 0, 256)
	if got := compiles.Value() - before; got != 1 {
		t.Errorf("installing a plan compiled %d times, want 1", got)
	}
	const n = 1 << 16 // 256 KiB a vector, over 64 KiB staging halves
	hx, err := traced.MemAllocHost(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := traced.MemAllocHost(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []*Buffer{hx, hy} {
		if err := b.StoreFloat32s(0, make([]float32, n)); err != nil {
			t.Fatal(err)
		}
	}
	before = compiles.Value()
	ooc := axpyOver(t, traced.def, hx, hy, n, 1)
	chunks := int64(len(ooc.ooc.Chunks))
	if got := compiles.Value() - before; chunks < 2 || got != chunks {
		t.Errorf("installing an out-of-core plan of %d chunks compiled %d times, want once a chunk", chunks, got)
	}
	before = compiles.Value()
	for i := 0; i < 200; i++ {
		if _, err := p.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		inv, err := ooc.Execute(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if inv.Report.OOCChunks != chunks {
			t.Fatalf("the out-of-core launch ran %d chunks, want %d", inv.Report.OOCChunks, chunks)
		}
	}
	if got := compiles.Value() - before; got != 0 {
		t.Errorf("200 launches of an installed plan and 3 of an out-of-core one compiled %d times, want 0", got)
	}
}

// TestInstallFixedCost gates what installing a plan may cost: the descriptor
// is read once by the verifier, compiled once and serialised once, so the
// allocations of AccPlanDescriptor + Destroy are bounded (35 for a one-pass
// descriptor and 59 for an eight-pass one, what mealibd's batcher installs
// per flush; 40 and 112 while fusion grew each comp's extents and formatted
// an error per adjacent pair that is no link, 76 and 360 before the install
// was one walk) and accel.compiles moves by exactly one per install. The race
// detector adds a few.
func TestInstallFixedCost(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tracer = telemetry.New()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkQuiescent(t, r)
	compiles := r.Tracer().Metrics().Counter("accel.compiles")
	const n = 256
	for _, tc := range []struct {
		passes int
		most   float64
	}{{1, 40}, {8, 72}} {
		d := &descriptor.Descriptor{}
		for i := 0; i < tc.passes; i++ {
			x, y := zeroed(t, r.def, n), zeroed(t, r.def, n)
			if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
				N: n, Alpha: 2, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
			}.Params()); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
		}
		install := func() {
			p, err := r.AccPlanDescriptor(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Destroy(); err != nil {
				t.Fatal(err)
			}
		}
		install()
		before := compiles.Value()
		const runs = 100
		avg := testing.AllocsPerRun(runs, install)
		if avg > tc.most {
			t.Errorf("installing and destroying a %d-pass plan allocates %.1f times, want at most %.0f", tc.passes, avg, tc.most)
		}
		// AllocsPerRun makes one warm-up call of its own.
		if got := compiles.Value() - before; got != runs+1 {
			t.Errorf("%d installs of a %d-pass plan compiled %d times, want once each", runs+1, tc.passes, got)
		}
		t.Logf("%d-pass install + destroy: %.1f allocations", tc.passes, avg)
	}
}

// TestSamePlanFlightsTakeTurns: a plan has one command word, so launches of
// one plan never overlap, wave pipelining or not. Submitted back to back under
// WavePipeline they used to be admitted together, and the later doorbell and
// the earlier flight's CmdDone overwrote each other ("descriptor not started
// (command 2)").
func TestSamePlanFlightsTakeTurns(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.WavePipeline = true
	cfg.Workers = 2
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkQuiescent(t, r)
	const n, iters, flights, rounds = 256, 64, 4, 25
	ones := make([]float32, n*iters)
	for i := range ones {
		ones[i] = 1
	}
	x, y := f32s(t, r.def, ones...), f32s(t, r.def, make([]float32, n*iters)...)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: n, Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
		LoopStrideX: accel.Lin(4 * n), LoopStrideY: accel.Lin(4 * n)}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	p, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	var first *accel.Report
	for round := 0; round < rounds; round++ {
		var launches []*Launch
		for i := 0; i < flights; i++ {
			l, err := p.Submit(ctx)
			if err != nil {
				t.Fatal(err)
			}
			launches = append(launches, l)
		}
		for _, l := range launches {
			inv, err := l.Wait(ctx)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if first == nil {
				first = inv.Report
			} else if !reflect.DeepEqual(first, inv.Report) {
				t.Fatalf("two flights of one program report differently:\n%+v\n%+v", first, inv.Report)
			}
		}
	}
	got, err := y.LoadFloat32s(0, n*iters)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != flights*rounds {
			t.Fatalf("y[%d] = %v after %d flights of y += x, want %d", i, v, flights*rounds, flights*rounds)
		}
	}
}

// TestSessionsShareOneLayer: two sessions launch their own plans on the one
// layer at the same time, for the race detector and for the results.
func TestSessionsShareOneLayer(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.WavePipeline = true
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkQuiescent(t, r)
	var wg sync.WaitGroup
	for _, name := range []string{"a", "b"} {
		s := session(t, r, name)
		sp, _, sy := sessAxpyPlan(t, s, 1, 512)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := sp.Execute(ctx); err != nil {
					t.Error(err)
					return
				}
			}
			out, err := sy.LoadFloat32s(0, 512)
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range out {
				if want := 1 + 50*float32(i%7); v != want {
					t.Errorf("session %s: y[%d] = %v, want %v", name, i, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
