package accel

import (
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Ranges (plan.go lowerRanges, sched.go runBlock): a window inside a
// conflict-free nest is a few ranges whatever its size, and a failure is
// reported as the first in program order however the blocks of a range were
// claimed.

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
