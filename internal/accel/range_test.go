package accel

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
)

// Ranges (plan.go lowerRanges, sched.go runBlock): a window inside a
// conflict-free nest is a few ranges whatever its size, hooks still see every
// instance's footprint, and a failure is reported as the first in program
// order however the blocks of a range were claimed.

// TestConflictFreeWindowIsConstantSize: every window of the STAP nest (131,072
// iterations, one pass) and of the three-pass nest holds at most two ranges
// per body pass and records no spans and no edges.
func TestConflictFreeWindowIsConstantSize(t *testing.T) {
	l := newModelLayer(t, 2)
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

// TestRangeWaveFootprintIsNodeUnion: the footprint hooks hear of every wave
// of a window of ranges is, as a set, the union of the footprints of the pass
// instances the scoreboard puts in that wave, each derived from its comps'
// parameters at its iteration (Args.appendIO) — over the random conflict-free
// nests, windows of every small size, and the three-pass nest.
func TestRangeWaveFootprintIsNodeUnion(t *testing.T) {
	l := fuseRig(t, 1, true).layer
	rng := rand.New(rand.NewSource(28))
	var nests []*descriptor.Descriptor
	for len(nests) < 60 {
		if d := randomNest(t, rng); !iterationsConflict(t, d) {
			if _, n := lowerNest(t, l, d); n.rule == ruleNone {
				nests = append(nests, d)
			}
		}
	}
	nests = append(nests, threePassNest(t, 2*planWindow/3+20, 16, 0x10000, 0x100000, 0x200000, 0x300000))
	sorted := func(s []span.Dir) []span.Dir {
		s = slices.Clone(s)
		slices.SortFunc(s, func(a, b span.Dir) int {
			if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Bytes, b.Bytes); c != 0 {
				return c
			}
			if a.Write == b.Write {
				return 0
			}
			if a.Write {
				return 1
			}
			return -1
		})
		return s
	}
	waves := 0
	for i, d := range nests {
		for _, window := range []int{1, 2, 3, 5, 7, planWindow} {
			lw, _ := lowerNest(t, l, d)
			lw.window = window
			var p, q plan
			for lw.more() {
				nodesOf(*lw, &q)
				lw.next(&p)
				got := waveSpansOf(&p)
				want := make([][]span.Dir, len(q.waves))
				for k := range q.nodes {
					nd := &q.nodes[k]
					for _, a := range nd.tmpl.comps {
						var ok bool
						if want[nd.wave], ok = a.appendIO(want[nd.wave], q.iterAt(int32(k), 0)); !ok {
							t.Fatal("a generated operand wraps the address space")
						}
					}
				}
				if len(got) != len(want) {
					t.Fatalf("nest %d, windows of %d: %d waves hooked, the scoreboard has %d", i, window, len(got), len(want))
				}
				for w := range want {
					if got[w] == nil || !slices.Equal(sorted(got[w]), sorted(want[w])) {
						t.Fatalf("nest %d, windows of %d, wave %d: hooks hear of\n%v\nthe nodes' footprint is\n%v",
							i, window, w, got[w], want[w])
					}
					waves++
				}
			}
		}
	}
	t.Logf("%d nests, %d waves compared", len(nests), waves)
}

// TestRangeErrorIsFirstInProgramOrder: an AXPY nest whose y runs off the
// mapped arena from iteration j on fails at every iteration from j, across
// the first block a worker claims and into the next. Under one worker and
// two, hooked and not, the launch returns iteration j's error — what the core
// returns for that one invocation.
func TestRangeErrorIsFirstInProgramOrder(t *testing.T) {
	const n, iters, j = 16, 64, 2
	build := func(r *testRig) *descriptor.Descriptor {
		x := r.alloc(4 * n * iters)
		storeRandF32(t, r, x, n*iters, 281)
		// y's iteration j starts where the arena ends.
		y := phys.Addr(0x10000+diffArena) - 4*n*j
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 1, X: x, Y: y, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		return d
	}
	for _, workers := range []int{1, 2} {
		for _, hooked := range []bool{false, true} {
			r := newRigWorkers(t, workers)
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
			var hooks WaveHooks
			if hooked {
				hooks = &waveLog{t: t}
			}
			if _, err := r.layer.RunHooked(r.space, base, hooks); err == nil || err.Error() != want.Error() {
				t.Errorf("workers %d, hooked %v: the launch returns %v, want iteration %d's %v", workers, hooked, err, j, want)
			}
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
