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
func mapped(t *testing.T, r *testRig) []byte {
	t.Helper()
	reg, ok := r.space.Region(0x10000)
	if !ok {
		t.Fatal("the rig's arena is not mapped")
	}
	return reg.Bytes()
}

// requireCompiledEqualsFresh is the memo's differential: three launches
// through one compiled program against three runs that each decode and compile
// afresh, on twin rigs. After every round the reports are deeply equal and the
// mapped memory byte-identical, and afterwards the program's templates hold
// what they held before the first launch. With a window below planWindow the
// program is cut into windows of that many nodes; hooked launches carry a
// waveLog.
func requireCompiledEqualsFresh(t *testing.T, newRig func() *testRig, window int, hooked bool, build func(r *testRig) *descriptor.Descriptor) {
	t.Helper()
	fresh, memo := newRig(), newRig()
	fd, md := build(fresh), build(memo)
	prog, err := memo.layer.Compile(md)
	if err != nil {
		t.Fatal(err)
	}
	if window != planWindow {
		cut, err := memo.layer.compile(md, planExpand, window)
		if err != nil {
			t.Fatal(err)
		}
		if cut.win != nil {
			t.Fatalf("windows of %d: the program still fits one", window)
		}
		cut.img, cut.ptrs = prog.img, prog.ptrs
		prog = cut
	}
	before := templatesOf(prog)
	fbase, mbase := fresh.alloc(int(fd.Size())), memo.alloc(int(md.Size()))
	if fbase != mbase {
		t.Fatalf("the twin rigs diverged: command slots at %v and %v", fbase, mbase)
	}
	if err := prog.Install(memo.space, mbase); err != nil {
		t.Fatal(err)
	}
	hooksOf := func() WaveHooks {
		if hooked {
			return &waveLog{t: t}
		}
		return nil
	}
	for round := 0; round < 3; round++ {
		if err := fd.Encode(fresh.space, fbase); err != nil {
			t.Fatal(err)
		}
		for _, r := range []*testRig{fresh, memo} {
			if err := descriptor.WriteCommand(r.space, fbase, descriptor.CmdStart); err != nil {
				t.Fatal(err)
			}
		}
		want, err := fresh.layer.RunHooked(fresh.space, fbase, hooksOf())
		if err != nil {
			t.Fatal(err)
		}
		got, err := memo.layer.RunProgram(memo.space, mbase, prog, hooksOf())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round %d: the compiled program's report differs from the fresh run's:\n%+v\n%+v", round, got, want)
		}
		if !bytes.Equal(mapped(t, fresh), mapped(t, memo)) {
			t.Fatalf("round %d: memory after the compiled program differs from memory after the fresh run", round)
		}
	}
	if after := templatesOf(prog); !reflect.DeepEqual(before, after) {
		t.Fatal("a run wrote to the program's templates")
	}
}

// TestCompiledEqualsFreshFusion: the fused shapes (CHAIN, STAP small, SAR),
// with fusion on and off, serial and on four workers.
func TestCompiledEqualsFreshFusion(t *testing.T) {
	shapes := map[string]func(r *testRig) (*descriptor.Descriptor, phys.Addr, int, error){
		"CHAIN": func(r *testRig) (*descriptor.Descriptor, phys.Addr, int, error) { return chainShape(r, 768, 1024, 32) },
		"STAP":  func(r *testRig) (*descriptor.Descriptor, phys.Addr, int, error) { return stapShape(r, 16, 4, 64) },
		"SAR":   func(r *testRig) (*descriptor.Descriptor, phys.Addr, int, error) { return sarShape(r, 300, 512, 4, 8) },
	}
	for name, shape := range shapes {
		for _, workers := range []int{1, 4} {
			for _, noFusion := range []bool{false, true} {
				requireCompiledEqualsFresh(t, func() *testRig { return fuseRig(t, workers, noFusion) }, planWindow, workers == 4,
					func(r *testRig) *descriptor.Descriptor {
						d, _, _, err := shape(r)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						return d
					})
			}
		}
	}
}

// TestCompiledEqualsFreshSmallWindows cuts a two-pass nest and a mixed
// descriptor into windows of a few nodes: a program of several windows keeps
// its segments and templates and lowers each window as it runs.
func TestCompiledEqualsFreshSmallWindows(t *testing.T) {
	for _, window := range []int{1, 3, 7} {
		requireCompiledEqualsFresh(t, func() *testRig { return newRigWorkers(t, 2) }, window, true,
			func(r *testRig) *descriptor.Descriptor {
				d, _, _, err := chainShape(r, 96, 128, 9)
				if err != nil {
					t.Fatal(err)
				}
				// A top-level pass after the nest: the last windows are mixed.
				x := r.alloc(4 * 64)
				storeRandF32(t, r, x, 64, 5)
				if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: 64, Alpha: 3, X: x, Y: x, IncX: 1, IncY: 1}.Params()); err != nil {
					t.Fatal(err)
				}
				d.AddEndPass()
				return d
			})
	}
}

// TestCompiledEqualsFreshOOC: every chunk descriptor of an out-of-core
// schedule, through the program PlanOOC compiled for it against a fresh run.
func TestCompiledEqualsFreshOOC(t *testing.T) {
	const n, iters = 1024, 12
	hostBase := phys.Addr(0x10000 + 2<<20)
	inWindow := func(a phys.Addr) bool { return a >= hostBase }
	build := func(r *testRig) (*OOCSchedule, error) {
		halves := [2]phys.Addr{r.alloc(16 << 10), r.alloc(16 << 10)}
		storeRandF32(t, r, halves[0], 8<<10, 17)
		x, y := hostBase, hostBase+phys.Addr(4*n*iters)
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			return nil, err
		}
		if err := d.AddComp(descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 0.5, X: x, Y: y, IncX: 1, IncY: 1,
			LoopStrideX: Lin(4 * n), LoopStrideY: Lin(4 * n)}.Params()); err != nil {
			return nil, err
		}
		d.AddEndPass()
		d.AddEndLoop()
		return r.layer.PlanOOC(d, inWindow, halves, 16*units.KiB)
	}
	probe, err := build(newRigWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.Chunks) < 3 {
		t.Fatalf("%d chunks, want an out-of-core schedule of several", len(probe.Chunks))
	}
	for ci := range probe.Chunks {
		var sched *OOCSchedule
		requireCompiledEqualsFresh(t, func() *testRig { return newRigWorkers(t, 2) }, planWindow, false,
			func(r *testRig) *descriptor.Descriptor {
				if sched, err = build(r); err != nil {
					t.Fatal(err)
				}
				return sched.Chunks[ci].Desc
			})
		// The schedule's own program is what the driver runs: it must be the
		// compilation of the chunk's descriptor, image included.
		ch := sched.Chunks[ci]
		again, err := newRigWorkers(t, 2).layer.Compile(ch.Desc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ch.Prog.img, again.img) || !reflect.DeepEqual(templatesOf(ch.Prog), templatesOf(again)) {
			t.Fatalf("chunk %d: PlanOOC's program is not its descriptor compiled", ci)
		}
	}
}

// TestProgramSharedByConcurrentRuns: one layer, one compiled program, four
// runs of it in the air at once, each against a twin space of its own (what
// the runs share is the program and the layer, nothing else). Under the race
// detector a run that writes to the program fails here; without it, the
// reports must all be the fresh run's and the memories identical.
func TestProgramSharedByConcurrentRuns(t *testing.T) {
	const runs, rounds = 4, 3
	build := func(r *testRig) *descriptor.Descriptor {
		d, _, _, err := chainShape(r, 96, 128, 40)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	ref := newRigWorkers(t, 2)
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
			small, err := layer.compile(refD, planExpand, 5)
			if err != nil {
				t.Fatal(err)
			}
			small.img, small.ptrs = prog.img, prog.ptrs
			prog = small
		}
		rigs := make([]*testRig, runs)
		for i := range rigs {
			rigs[i] = newRigWorkers(t, 2)
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
					got, err := layer.RunProgram(r.space, refBase, prog, &waveLog{t: t})
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
