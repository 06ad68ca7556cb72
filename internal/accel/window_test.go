package accel

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Windowed lowering (plan.go): what a window holds. The matrix
// (matrix_test.go) runs every shape in windows of 1, 3, 7 and planWindow pass
// instances.

// TestExplainPlanPastOneWindow: the CDOTC nest's iterations are independent
// (they share y read-only), so each window is one wave as wide as the
// window, and the totals are sums over the windows.
func TestExplainPlanPastOneWindow(t *testing.T) {
	const pairs, sv, cells, n = 10, 8, 32, 16
	d := cdotcNest(t, pairs, sv, cells, n, 0x10000, 0x100000, 0x200000)
	info, err := testLayer(t, 4, true).ExplainPlan(d)
	if err != nil {
		t.Fatal(err)
	}
	nodes := pairs * sv * cells
	want := PlanInfo{Nodes: nodes, Waves: (nodes + planWindow - 1) / planWindow, MaxWidth: planWindow}
	if !reflect.DeepEqual(info, want) {
		t.Errorf("ExplainPlan = %+v, want %+v", info, want)
	}
}

// TestPlanLoopDependences puts the loop shapes the per-LOOP independence
// checker used to be unit-tested on through the plan's dependence analysis:
// independent iterations share one wave, conflicting ones chain.
func TestPlanLoopDependences(t *testing.T) {
	const iters = 16
	l := testLayer(t, 4, true)
	for _, c := range []struct {
		name  string
		comp  ChainComp
		waves int
	}{
		{"DisjointStrides", ChainComp{descriptor.OpAXPY, AxpyArgs{
			N: 64, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(256), LoopStrideY: Lin(256),
		}.Params()}, 1},
		// y unstridden: every iteration writes it.
		{"SharedWriteConflicts", ChainComp{descriptor.OpAXPY, AxpyArgs{
			N: 64, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(256),
		}.Params()}, iters},
		// y shared read-only.
		{"SharedReadOK", ChainComp{descriptor.OpDOT, DotArgs{
			N: 64, X: 0x1000, Y: 0x9000, Out: 0xd000, IncX: 1, IncY: 1, LoopStrideX: Lin(256), LoopStrideOut: Lin(4),
		}.Params()}, 1},
		// Stride smaller than the written span: iteration i+1's y overlaps i's.
		{"PartialOverlapConflicts", ChainComp{descriptor.OpAXPY, AxpyArgs{
			N: 64, X: 0x1000, Y: 0x9000, IncX: 1, IncY: 1, LoopStrideX: Lin(256), LoopStrideY: Lin(128),
		}.Params()}, iters},
	} {
		t.Run(c.name, func(t *testing.T) {
			info, err := l.ExplainPlan(looped(t, iters, c.comp))
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
// window holds at most planWindow pass instances (exactly that many but for
// the last), the windows' ranges, expanded, concatenate to the full expansion
// in program order, and the one plan they are lowered into never grows past
// what a single window needs.
func TestWindowWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := testLayer(t, 1, true)
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
			tmpl *nodeTemplate
			it   IterVec
		}
		var want []key
		for si := range lw.segs {
			seg := &lw.segs[si]
			iters := int64(1)
			if seg.loop {
				iters = seg.counts.Total()
			}
			for idx := int64(0); idx < iters; idx++ {
				for pi := range seg.passes {
					k := key{tmpl: &seg.tmpl[pi]}
					if seg.loop {
						k.it = iterVecAt(seg.counts, idx)
					}
					want = append(want, k)
				}
			}
		}
		var p plan
		var got []key
		for lw.more() {
			lw.next(&p)
			if p.size > planWindow || (lw.more() && p.size != planWindow) {
				t.Fatalf("trial %d: a window of %d pass instances (more: %v)", trial, p.size, lw.more())
			}
			// A window's ranges, expanded, in program order.
			at := len(got)
			got = append(got, make([]key, p.size)...)
			for k := range p.nodes {
				for j := range int(p.nodes[k].n) {
					got[at+int(p.nodes[k].ord)+j*max(1, len(p.body))] = key{p.nodes[k].tmpl, p.iterAt(int32(k), j)}
				}
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
// iteration, on both lowering paths: the STAP inner-product nest at four trip
// counts (conflict-free: every window a few ranges) and, as carried/, the
// same nest with a zero-stride out, every iteration storing to the one
// accumulator (a carried dependence: every window on the scoreboard, every
// wave one pass instance). Neither figure may grow with the trip count.
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
				r := rigOn(b, MEALibConfig(), 16*units.MiB)
				l, s := r.layer, r.space
				w := r.alloc(8 * sz.pairs * sz.sv * n)
				y := r.alloc(8 * sz.pairs * n * cells)
				out := r.alloc(8 * iters)
				d := cdotcNest(b, sz.pairs, sz.sv, cells, n, w, y, out)
				if carried {
					p, err := d.ParamsOf(0)
					if err != nil {
						b.Fatal(err)
					}
					off := specs[descriptor.OpDOT].strideOff[dtOut]
					clear(p[off : off+descriptor.MaxLoopLevels])
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
				runs := float64(b.N) * float64(iters)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/runs, "ns/iter")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/runs, "allocs/iter")
			})
		}
	}
}
