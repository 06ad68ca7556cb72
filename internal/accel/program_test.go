package accel

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// templatesOf copies what the program's templates hold and a run might write:
// every priced quantity, the per-accelerator stats and the cores' decoded
// argument structs.
func templatesOf(prog *Program) []nodeTemplate {
	var out []nodeTemplate
	for si := range prog.lw.segs {
		for _, tm := range prog.lw.segs[si].tmpl {
			tm.ops = slices.Clone(tm.ops)
			tm.spans = slices.Clone(tm.spans)
			// The decoded structs by value: a core that wrote its *T
			// would change them.
			tm.comps = slices.Clone(tm.comps)
			for i, c := range tm.comps {
				if c.typed != nil {
					tm.comps[i].typed = reflect.ValueOf(c.typed).Elem().Interface()
				}
			}
			out = append(out, tm)
		}
	}
	return out
}

// mapped returns every mapped byte of the rig's space.
func mapped(t testing.TB, r *testRig) []byte {
	t.Helper()
	reg, ok := r.space.Region(arenaBase)
	if !ok {
		t.Fatal("the rig's arena is not mapped")
	}
	return reg.Bytes()
}

// compileIn compiles d for l, image included, to be lowered in windows of
// window nodes.
func compileIn(t testing.TB, l *Layer, d *descriptor.Descriptor, window int) *Program {
	t.Helper()
	prog, err := l.Compile(d)
	if err != nil {
		t.Fatal(err)
	}
	if window == planWindow {
		return prog
	}
	cut, err := l.compile(d, window)
	if err != nil {
		t.Fatal(err)
	}
	cut.img, cut.ptrs = prog.img, prog.ptrs
	return cut
}

// TestCompiledEqualsFreshOOC: every chunk descriptor of an out-of-core
// schedule goes through the matrix, and the program PlanOOC compiled for it
// is its compilation, image included.
//
// Gate (check.sh): bit-identity.
func TestCompiledEqualsFreshOOC(t *testing.T) {
	const n, iters = 1024, 12
	r := newRig(t)
	h := r.noise(t, 8<<10, 17)
	halves := [2]phys.Addr{h, h + 16<<10}
	x, y := r.alloc(4*n*iters), r.alloc(4*n*iters)
	d := looped(t, iters, ChainComp{descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 0.5, X: x, Y: y, IncX: 1, IncY: 1,
		LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()})
	sched, err := r.layer.PlanOOC(d, func(a phys.Addr) bool { return a >= x }, halves, 16*units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Chunks) < 3 {
		t.Fatalf("%d chunks, want an out-of-core schedule of several", len(sched.Chunks))
	}
	mem := slices.Clone(mapped(t, r)[:r.next-arenaBase])
	for ci, ch := range sched.Chunks {
		again, err := r.layer.Compile(ch.Desc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ch.Prog.img, again.img) || !reflect.DeepEqual(templatesOf(ch.Prog), templatesOf(again)) {
			t.Fatalf("chunk %d: PlanOOC's program is not its descriptor compiled", ci)
		}
		checkCase(t, &diffCase{d: ch.Desc, mem: mem})
	}
}

// TestProgramSharedByConcurrentRuns: one layer, one compiled program, four
// runs of it in the air at once, each against a twin space of its own (what
// the runs share is the program and the layer, nothing else). Under the race
// detector a run that writes to the program fails here; without it, the
// reports must all be the fresh run's and the memories identical.
//
// Gate (check.sh): bit-identity.
func TestProgramSharedByConcurrentRuns(t *testing.T) {
	const runs, rounds = 4, 3
	build := func(r *testRig) *descriptor.Descriptor { return chainShape(t, r, 96, 128, 40) }
	ref := rigOn(t, configWith(2, true), 4*units.MiB)
	layer := ref.layer
	var want []*Report
	refD := build(ref)
	refBase := ref.alloc(int(refD.Size()))
	for round := 0; round < rounds; round++ {
		rep, err := layer.RunPlain(ref.space, refD, refBase)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rep)
	}
	prog, err := layer.Compile(refD)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []bool{false, true} {
		if cut {
			// The same program in windows of five nodes: every run lowers its own.
			prog = compileIn(t, layer, refD, 5)
		}
		rigs := make([]*testRig, runs)
		for i := range rigs {
			rigs[i] = rigOn(t, configWith(2, true), 4*units.MiB)
			build(rigs[i])
			if base := rigs[i].alloc(int(refD.Size())); base != refBase {
				t.Fatalf("twin rig %d diverged: command slot at %v, want %v", i, base, refBase)
			}
			if err := prog.Install(rigs[i].space, refBase); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for i, r := range rigs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < rounds; round++ {
					if err := descriptor.WriteCommand(r.space, refBase, descriptor.CmdStart); err != nil {
						t.Error(err)
						return
					}
					got, err := layer.RunProgram(r.space, refBase, prog)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(want[round], got) {
						t.Errorf("run %d, round %d: report differs from the fresh run's:\n%+v\n%+v", i, round, got, want[round])
					}
				}
			}()
		}
		wg.Wait()
		for i, r := range rigs {
			if !bytes.Equal(mapped(t, ref), mapped(t, r)) {
				t.Fatalf("run %d: memory differs from the fresh runs'", i)
			}
		}
	}
}

// TestRunProgramFixedCost gates what a run of a compiled program allocates on
// the layer's side: nothing. The run record and its block claims come from a
// pool, every comp runs on the struct its template decoded once (a block past
// iteration zero on a pooled copy of it), and the doorbell check and CmdDone
// go through the slot view the image compare took, and the AXPY kernel runs
// its value body inline. Under the race detector sync.Pool drops a quarter of
// its Puts, so there the pools cost a few more.
//
// Gate (check.sh): fixed costs.
func TestRunProgramFixedCost(t *testing.T) {
	for _, iters := range []uint32{1, 64} {
		const n = 256
		r := rigOn(t, MEALibConfig(), 4*units.MiB)
		x, y := r.noise(t, n*int(iters), 1), r.noise(t, n*int(iters), 2)
		axpy := ChainComp{descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 0.5, X: x, Y: y, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()}
		d := newShape(t).pass(axpy).d
		if iters > 1 {
			d = looped(t, iters, axpy)
		}
		prog, err := r.layer.Compile(d)
		if err != nil {
			t.Fatal(err)
		}
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
		most := 0.0
		if raceEnabled {
			most = float64(iters) + 16
		}
		if avg := testing.AllocsPerRun(200, run); avg > most {
			t.Errorf("a run of a compiled %d-instance AXPY allocates %.1f times, want at most %.0f", iters, avg, most)
		}
	}
}

// snapshot copies what a run could write to a lowered window.
func snapshot(p *plan) plan {
	c := *p
	c.nodes, c.spans, c.deps, c.order = slices.Clone(p.nodes), slices.Clone(p.spans), slices.Clone(p.deps), slices.Clone(p.order)
	c.waves = make([][]int32, len(p.waves))
	for i, w := range p.waves {
		c.waves[i] = slices.Clone(w)
	}
	c.sb = scoreboard{}
	return c
}

// TestPooledRunKeepsNoSharedWindow: a run record outlives its run in a pool,
// and a compiled program's one window is shared by every run of it. A record
// that kept that window would lower the next program's windows into it. On
// one layer, a compiled one-window program runs, then a program of many
// windows, then the first again: the first program's window must come out as
// it went in, and every launch must leave the memory and the report a fresh
// decode and compile of the same descriptor leaves.
//
// Gate (check.sh): the compiled plan.
func TestPooledRunKeepsNoSharedWindow(t *testing.T) {
	build := func(r *testRig) (one, many *descriptor.Descriptor) {
		const n, iters = 128, 8
		x, y := r.noise(t, n*iters, 3), r.noise(t, n*iters, 4)
		one = looped(t, iters, ChainComp{descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 0.25, X: x, Y: y, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()})
		return one, chainThenPassCase(t, r)
	}
	ref := rigOn(t, configWith(2, true), 4*units.MiB)
	r := rigOn(t, configWith(2, true), 4*units.MiB)
	refOne, refMany := build(ref)
	one, many := build(r)
	progOne := compileIn(t, r.layer, one, planWindow)
	progMany := compileIn(t, r.layer, many, 5)
	if progOne.win == nil || progMany.win != nil {
		t.Fatalf("want a one-window program and one of many windows (windows %v, %v)", progOne.win != nil, progMany.win != nil)
	}
	before := snapshot(progOne.win)
	bases := map[*Program]phys.Addr{progOne: r.alloc(int(one.Size())), progMany: r.alloc(int(many.Size()))}
	refBases := map[*descriptor.Descriptor]phys.Addr{refOne: ref.alloc(int(refOne.Size())), refMany: ref.alloc(int(refMany.Size()))}
	for prog, base := range bases {
		if err := prog.Install(r.space, base); err != nil {
			t.Fatal(err)
		}
	}
	for d, base := range refBases {
		if err := d.Encode(ref.space, base); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		prog *Program
		d    *descriptor.Descriptor
	}{{progOne, refOne}, {progMany, refMany}, {progOne, refOne}}
	// The compiled launches back to back, so that each takes the record the
	// one before it gave back; then the fresh ones.
	got := make([]*Report, len(steps))
	for i, step := range steps {
		base := bases[step.prog]
		if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
			t.Fatal(err)
		}
		var err error
		if got[i], err = r.layer.RunProgram(r.space, base, step.prog); err != nil {
			t.Fatal(err)
		}
		if after := snapshot(progOne.win); !reflect.DeepEqual(after, before) {
			t.Fatalf("launch %d: the one-window program's shared window changed", i)
		}
	}
	for i, step := range steps {
		want, err := ref.layer.RunPlain(ref.space, step.d, refBases[step.d])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("launch %d: the report differs from a fresh run's:\n%+v\n%+v", i, got[i], want)
		}
	}
	if !bytes.Equal(mapped(t, r)[:r.next-arenaBase], mapped(t, ref)[:ref.next-arenaBase]) {
		t.Fatal("the memory differs from the fresh runs'")
	}
}
