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
// every priced quantity and the per-accelerator stats.
func templatesOf(prog *Program) []nodeTemplate {
	var out []nodeTemplate
	for si := range prog.lw.segs {
		for _, tm := range prog.lw.segs[si].tmpl {
			tm.ops = slices.Clone(tm.ops)
			tm.spans = slices.Clone(tm.spans)
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
