package mealibrt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
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
//
// Gate (check.sh): the compiled plan.
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
// block after install, or the params map of a TDL plan whose LOOP advances
// its addresses from that block; the installed plan's next launch must be
// the launch it was before.
//
// Gate (check.sh): the compiled plan.
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

	const iters = 4
	xs := f32s(t, r.def, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
	ys, elsewhere := zeroed(t, r.def, 4*iters), zeroed(t, r.def, 4*iters)
	blocks := map[string]descriptor.Params{"axpy.para": accel.AxpyArgs{N: 4, Alpha: 2, X: xs.PA(), Y: ys.PA(), IncX: 1, IncY: 1,
		LoopStrideX: accel.Lin(16), LoopStrideY: accel.Lin(16)}.Params()}
	lp, err := r.AccPlan(`LOOP 4 { PASS { COMP AXPY PARAMS "axpy.para" } }`, blocks)
	if err != nil {
		t.Fatal(err)
	}
	loop := func() []float32 {
		t.Helper()
		if err := ys.StoreFloat32s(0, make([]float32, 4*iters)); err != nil {
			t.Fatal(err)
		}
		if _, err := lp.Execute(context.Background()); err != nil {
			t.Fatalf("Execute of the installed TDL plan: %v", err)
		}
		out, err := ys.LoadFloat32s(0, 4*iters)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	loop()
	before := loop()
	// The block the plan was built from now names another y, 100x, and a
	// stride that runs both LOOP operands backwards.
	copy(blocks["axpy.para"], accel.AxpyArgs{N: 4, Alpha: 100, X: xs.PA(), Y: elsewhere.PA(), IncX: 1, IncY: 1,
		LoopStrideX: accel.Lin(-16), LoopStrideY: accel.Lin(-16)}.Params())
	after := loop()
	untouched, err := elsewhere.LoadFloat32s(0, 4*iters)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if want := 2 * float32(i+1); before[i] != want || after[i] != want || untouched[i] != 0 {
			t.Fatalf("TDL LOOP plan, element %d: y %v before the caller edited its params and %v after, want %v twice; the other buffer holds %v, want 0",
				i, before[i], after[i], want, untouched[i])
		}
	}
}

// TestStaleImageNeverRuns: the layer still fetches from memory. With a byte
// of the installed image flipped through Runtime.Space, a launch does what a
// run that decodes those bytes does (the modified program's result, or its
// error) and never what the cached program would.
//
// Gate (check.sh): the compiled plan.
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
//
// An Execute allocates the Invocation it returns and nothing else of its own:
// its launch record and the layer's run record come from pools, and the
// arguments were decoded at install. What is left is AXPY's kernel closure,
// one an instance, so a one-comp plan allocates twice and a 64-instance LOOP
// 65 times (4 and 67 before the pools). A Submit + Wait adds the record
// somebody else may Wait on, its done channel and the flight's goroutine: 5
// (6). sync.Pool drops a quarter of its Puts under the race detector, so there
// the bounds are looser.
//
// Gate (check.sh): fixed costs.
func TestExecuteFixedCost(t *testing.T) {
	ctx := context.Background()
	r := newRuntime(t)
	p, _, _ := sessAxpyPlan(t, r.def, 0, 256)
	const iters = 64
	x, y := zeroed(t, r.def, 256*iters), zeroed(t, r.def, 256*iters)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 256, Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
		LoopStrideX: accel.Lin(4 * 256), LoopStrideY: accel.Lin(4 * 256)}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	loop, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what       string
		launch     func() error
		most, race float64
	}{
		{"Execute of a warm one-comp plan", func() error { _, err := p.Execute(ctx); return err }, 2, 5},
		{"Execute of a warm 64-instance LOOP", func() error { _, err := loop.Execute(ctx); return err }, iters + 1, iters + 16},
		{"Submit + Wait of a warm one-comp plan", func() error {
			l, err := p.Submit(ctx)
			if err == nil {
				_, err = l.Wait(ctx)
			}
			return err
		}, 5, 8},
	} {
		if err := tc.launch(); err != nil {
			t.Fatal(err)
		}
		most := tc.most
		if raceEnabled {
			most = tc.race
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := tc.launch(); err != nil {
				t.Fatal(err)
			}
		}); avg > most {
			t.Errorf("%s allocates %.1f times, want at most %.0f", tc.what, avg, most)
		}
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
//
// Gate (check.sh): fixed costs.
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

// TestTDLInstallFixedCost gates what installing an eight-pass TDL program may
// cost. The fusion analysis compiles the program into a descriptor; when no
// group applies, that descriptor is the one installed (a copy of it: its
// parameter blocks are the caller's). AccPlan + Destroy allocates 120 times
// (129 while AccPlan compiled the program a second time). The race detector
// adds a few (128 and 137).
//
// Gate (check.sh): fixed costs.
func TestTDLInstallFixedCost(t *testing.T) {
	r := newRuntime(t)
	const n, passes = 256, 8
	params := map[string]descriptor.Params{}
	var src strings.Builder
	for i := 0; i < passes; i++ {
		x, y := zeroed(t, r.def, n), zeroed(t, r.def, n)
		name := fmt.Sprintf("axpy%d.para", i)
		params[name] = accel.AxpyArgs{N: n, Alpha: 2, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params()
		fmt.Fprintf(&src, "PASS { COMP AXPY PARAMS %q }\n", name)
	}
	install := func() {
		p, err := r.AccPlan(src.String(), params)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
	install()
	most := 125.0
	if raceEnabled {
		most = 133
	}
	avg := testing.AllocsPerRun(100, install)
	if avg > most {
		t.Errorf("installing and destroying an %d-pass TDL plan allocates %.1f times, want at most %.0f", passes, avg, most)
	}
	t.Logf("%d-pass TDL install + destroy: %.1f allocations", passes, avg)
}

// TestSamePlanFlightsTakeTurns: a plan has one command word, so launches of
// one plan never overlap: submitted back to back, each waits in admission for
// the one before it to retire. Were two admitted together, the later doorbell
// and the earlier flight's CmdDone would overwrite each other ("descriptor not
// started (command 2)").
//
// Gate (check.sh): the compiled plan.
func TestSamePlanFlightsTakeTurns(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.Accel.Workers = 2
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
//
// Gate (check.sh): the compiled plan.
func TestSessionsShareOneLayer(t *testing.T) {
	ctx := context.Background()
	r := newRuntime(t)
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

// TestPooledRecordsAreNeverShared: Execute's launch record and the layer's run
// record come from pools, and a record back in its pool goes to the next
// launch on any goroutine. Eight goroutines each run 500 Executes of a plan of
// their own while two more share one plan: every y must come out bit for bit
// as a serial host loop of the same AXPYs leaves it, every launch must return
// an Invocation of its own with the plan's report, and the runtime's books
// must balance afterwards. It means most under the race detector.
//
// Gate (check.sh): the one launch record.
func TestPooledRecordsAreNeverShared(t *testing.T) {
	ctx := context.Background()
	r := newRuntime(t)
	const n, runs, own, sharing = 64, 500, 8, 2
	type job struct {
		p        *Plan
		y        *Buffer
		x, host  []float32
		launches int
	}
	jobs := make([]*job, own+1)
	for i := range jobs {
		x, y := make([]float32, n), make([]float32, n)
		for k := range x {
			x[k], y[k] = float32(math.Sin(float64(i*n+k))), float32(i)+float32(k)/7
		}
		j := &job{x: x, host: slices.Clone(y), y: f32s(t, r.def, y...), launches: runs}
		if i == own {
			j.launches = sharing * runs
		}
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: n, Alpha: 0.1, X: f32s(t, r.def, x...).PA(), Y: j.y.PA(),
			IncX: 1, IncY: 1}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		p, err := r.AccPlanDescriptor(d)
		if err != nil {
			t.Fatal(err)
		}
		j.p = p
		jobs[i] = j
	}
	invs := make([][]*Invocation, own+sharing)
	var wg sync.WaitGroup
	for g := range invs {
		j := jobs[min(g, own)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < runs; k++ {
				inv, err := j.p.Execute(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				invs[g] = append(invs[g], inv)
			}
		}()
	}
	wg.Wait()
	seen := make(map[*Invocation]bool)
	for g, list := range invs {
		want := jobs[min(g, own)].p.prog.Report()
		for _, inv := range list {
			if seen[inv] || inv.Report != want {
				t.Fatalf("goroutine %d: an Invocation handed out twice, or with another plan's report", g)
			}
			seen[inv] = true
		}
	}
	for i, j := range jobs {
		for k := 0; k < j.launches; k++ {
			if err := kernels.Saxpy(n, 0.1, j.x, 1, j.host, 1); err != nil {
				t.Fatal(err)
			}
		}
		got, err := j.y.LoadFloat32s(0, n)
		if err != nil {
			t.Fatal(err)
		}
		for k := range got {
			if math.Float32bits(got[k]) != math.Float32bits(j.host[k]) {
				t.Fatalf("plan %d, y[%d] = %v after %d launches, want the host loop's %v", i, k, got[k], j.launches, j.host[k])
			}
		}
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
