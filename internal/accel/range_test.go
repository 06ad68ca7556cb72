package accel

import (
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Ranges (plan.go lowerRanges, sched.go runRange): a window inside a
// conflict-free nest is a few ranges whatever its size, the windows of a
// one-pass nest run as one range (runNest), and a failure is reported as the
// first in program order however the blocks of a range were claimed.

// TestConflictFreeWindowIsConstantSize: every window of the STAP nest (131,072
// iterations, one pass) and of the three-pass nest holds at most two ranges
// per body pass and records no spans and no edges.
//
// Gate (check.sh): nest verdicts and ranges.
func TestConflictFreeWindowIsConstantSize(t *testing.T) {
	l := testLayer(t, 2, true)
	for _, d := range []*descriptor.Descriptor{
		cdotcNest(t, 512, 8, 32, 16, 0x10000, 0x1000000, 0x2000000),
		threePassNest(t, 2*planWindow/3+20, 16, 0x10000, 0x100000, 0x200000, 0x300000),
	} {
		lw, _ := lowerNest(t, l, d)
		body, windows := len(lw.segs[0].passes), 0
		var p plan
		for lw.more() {
			lw.next(&p)
			windows++
			if p.body == nil || len(p.nodes) > 2*body || len(p.spans) != 0 || len(p.deps) != 0 {
				t.Fatalf("window %d: %d ranges over a body of %d passes, %d spans, %d deps (ranges: %v)",
					windows, len(p.nodes), body, len(p.spans), len(p.deps), p.body != nil)
			}
			if lw.more() && p.size != planWindow {
				t.Fatalf("window %d holds %d pass instances, want %d", windows, p.size, planWindow)
			}
		}
		if want := (d.Instrs[0].Counts.Total()*int64(body) + planWindow - 1) / planWindow; int64(windows) != want {
			t.Errorf("%d windows, want %d", windows, want)
		}
	}
}

// TestRangeErrorIsFirstInProgramOrder: an AXPY nest whose y runs off the
// mapped arena from iteration j on fails at every iteration from j, across
// the first block a worker claims and into the next. Under one worker and
// two, the launch returns iteration j's error — what the core returns for
// that one invocation.
//
// Gate (check.sh): nest verdicts and ranges.
func TestRangeErrorIsFirstInProgramOrder(t *testing.T) {
	const n, iters, j, arena = 16, 64, 2, 16 * units.KiB
	build := func(r *testRig) *descriptor.Descriptor {
		x := r.noise(t, n*iters, 281)
		// y's iteration j starts where the arena ends.
		y := arenaBase + phys.Addr(arena) - 4*n*j
		return looped(t, iters, ChainComp{descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 1, X: x, Y: y, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()})
	}
	for _, workers := range []int{1, 2} {
		r := rigOn(t, configWith(workers, true), arena)
		d := build(r)
		if _, n := lowerNest(t, r.layer, d); n.rule != ruleNone {
			t.Fatalf("the nest is blocked: %s", n.why())
		}
		p, err := d.ParamsOf(0)
		if err != nil {
			t.Fatal(err)
		}
		_, want := execute(r.space, descriptor.OpAXPY, p, IterVec{3: j})
		if _, after := execute(r.space, descriptor.OpAXPY, p, IterVec{3: j + 1}); want == nil || after == nil || after.Error() == want.Error() {
			t.Fatalf("iteration %d fails with %v and the next with %v: want two distinct errors", j, want, after)
		}
		base := r.alloc(int(d.Size()))
		if err := d.Encode(r.space, base); err != nil {
			t.Fatal(err)
		}
		if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
			t.Fatal(err)
		}
		if _, err := r.layer.Run(r.space, base); err == nil || err.Error() != want.Error() {
			t.Errorf("workers %d: the launch returns %v, want iteration %d's %v", workers, err, j, want)
		}
	}
}

// mergedNest is a DOT nest of iters instances whose x at iteration i is the
// 64 bytes at xBase+64·i, mapped on r but for the instances in holes; y and
// out are in the arena.
func mergedNest(t *testing.T, r *testRig, iters int, holes ...int) *descriptor.Descriptor {
	t.Helper()
	const n, xBase = 16, phys.Addr(0x1000000)
	lo := 0
	for _, hole := range append(holes, iters) {
		if hole > lo {
			if _, err := r.space.Map(xBase+phys.Addr(64*lo), units.Bytes(64*(hole-lo))); err != nil {
				t.Fatal(err)
			}
		}
		lo = hole + 1
	}
	y, out := r.noise(t, n, 291), r.alloc(4*iters)
	return looped(t, uint32(iters), ChainComp{descriptor.OpDOT, DotArgs{N: n, X: xBase, Y: y, Out: out, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4 * n), LoopStrideOut: Lin(4)}.Params()})
}

// launchIn compiles d in windows of window instances, installs it and
// launches it once.
func launchIn(t *testing.T, r *testRig, d *descriptor.Descriptor, window int) error {
	t.Helper()
	prog := compileIn(t, r.layer, d, window)
	base := r.alloc(int(d.Size()))
	if err := prog.Install(r.space, base); err != nil {
		t.Fatal(err)
	}
	if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
		t.Fatal(err)
	}
	_, err := r.layer.RunProgram(r.space, base, prog)
	return err
}

// TestMergedNestFailsFirst: a one-pass conflict-free DOT nest of 64 instances
// lowered in eight windows of eight runs them as one range in one fan-out (one
// wave span). Instances 20 and 45, in its third and sixth windows, read x
// from unmapped holes, each at its own address. Under one worker and four,
// the launch returns instance 20's failure: what the core returns for that
// one invocation, and what the nest in windows of one returns with every
// instance run by dotCore (coreOnly).
//
// Gate (check.sh): nest verdicts and ranges; the core-count gate.
func TestMergedNestFailsFirst(t *testing.T) {
	const iters, first, second = 64, 20, 45
	for _, workers := range []int{1, 4} {
		cfg := configWith(workers, true)
		cfg.Tracer = telemetry.New()
		r := rigOn(t, cfg, 64*units.KiB)
		d := mergedNest(t, r, iters, first, second)
		if _, n := lowerNest(t, r.layer, d); n.rule != ruleNone {
			t.Fatalf("the nest is blocked: %s", n.why())
		}
		p, err := d.ParamsOf(0)
		if err != nil {
			t.Fatal(err)
		}
		_, want := execute(r.space, descriptor.OpDOT, p, IterVec{3: first})
		if _, later := execute(r.space, descriptor.OpDOT, p, IterVec{3: second}); want == nil || later == nil || later.Error() == want.Error() {
			t.Fatalf("instance %d fails with %v and %d with %v: want two distinct errors", first, want, second, later)
		}
		var err1 error
		coreOnly(func() { err1 = launchIn(t, r, d, 1) })
		if err1 == nil || err1.Error() != want.Error() {
			t.Fatalf("workers %d, window 1, dotCore alone: the launch returns %v, want instance %d's %v", workers, err1, first, want)
		}
		waves := cfg.Tracer.Spans()[telemetry.SpanWave]
		if err := launchIn(t, r, d, iters/8); err == nil || err.Error() != want.Error() {
			t.Errorf("workers %d, eight windows: the launch returns %v, want instance %d's %v", workers, err, first, want)
		}
		if got := cfg.Tracer.Spans()[telemetry.SpanWave] - waves; workers > 1 && got != 1 {
			t.Errorf("workers %d: eight windows ran in %d bracketed waves, want one fan-out", workers, got)
		}
	}
}

// TestMergedWindowsFixedCost: a compiled one-pass LOOP lowered in eight
// windows runs them in one fan-out, so that a launch of it allocates no more
// than one of the same LOOP compiled as one window (a fan-out per window
// allocated its own helpers). The workers are set, so that the fan-outs start
// helpers under testing.AllocsPerRun's one proc too. Without the race
// detector, whose sync.Pool drops a quarter of its Puts.
//
// Gate (check.sh): fixed costs.
func TestMergedWindowsFixedCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	const iters = 64
	var allocs [2]float64
	for i, window := range []int{planWindow, iters / 8} {
		r := rigOn(t, configWith(2, true), 64*units.KiB)
		d := mergedNest(t, r, iters)
		prog := compileIn(t, r.layer, d, window)
		base := r.alloc(int(d.Size()))
		if err := prog.Install(r.space, base); err != nil {
			t.Fatal(err)
		}
		run := func() {
			if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
				t.Fatal(err)
			}
			if _, err := r.layer.RunProgram(r.space, base, prog); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs[i] = testing.AllocsPerRun(100, run)
	}
	if allocs[1] > allocs[0] {
		t.Errorf("a launch of a LOOP in eight windows allocates %.1f times, one in one window %.1f", allocs[1], allocs[0])
	}
	t.Logf("one window: %.1f allocations per launch; eight windows: %.1f", allocs[0], allocs[1])
}

// TestEmptyLoopLowersToNothing: a LOOP with an empty body has no pass
// instance, so its one window is empty; it runs, paying only the dispatch of
// its iterations.
func TestEmptyLoopLowersToNothing(t *testing.T) {
	r := newRig(t)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(4); err != nil {
		t.Fatal(err)
	}
	d.AddEndLoop()
	info, err := r.layer.ExplainPlan(d)
	if err != nil || info.Nodes != 0 || info.Waves != 0 {
		t.Fatalf("ExplainPlan = %+v, %v; want an empty plan", info, err)
	}
	if rep := r.run(t, d); rep.Comps != 0 || rep.Time <= rep.FetchDecodeTime {
		t.Errorf("report %+v: want no comps and the iterations' dispatch charged", rep)
	}
}
