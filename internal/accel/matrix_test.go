package accel

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// The bit-identity matrix. Fusion, windows, ranges, the worker pool and
// compiled programs may change how a descriptor is scheduled and priced, never
// what it computes: one call per COMP, in program order (paper §2.2's LOOP
// descriptor, §3.4's chaining). genCase draws a descriptor and the memory it
// runs on from a byte string; checkCase runs it through every cell of
//
//	workers {1, 4} × fusion {on, off} × window {1, 3, 7, planWindow}
//	  × {fresh, one Program launched three times}
//
// and the cells of four workers run traced, so that what the scheduler emits
// is checked too.
//
// FuzzDifferential is the two together. Its seed corpus is the hand-written
// shapes (shapes_test.go) and a few generated draws (drawnSeeds).

// arenaBase is where every rig maps its arena.
const arenaBase = phys.Addr(0x10000)

// diffCase is one draw: a descriptor and the arena contents it starts from.
type diffCase struct {
	d   *descriptor.Descriptor
	mem []byte
	// lm overrides the tiles' local memory (0: the paper's), so that chained
	// handoffs spill and fusion refuses pairs; remote puts the upper half of
	// the arena on another stack.
	lm     units.Bytes
	remote bool
}

// config is the layer of one cell.
func (c *diffCase) config(workers int, fusion bool) *Config {
	cfg := configWith(workers, fusion)
	if c.lm > 0 {
		cfg.LMBytes = c.lm
	}
	if c.remote {
		mid := arenaBase + phys.Addr(len(c.mem)/2)
		cfg.StackOf = func(a phys.Addr) int {
			if a >= mid {
				return 1
			}
			return 0
		}
	}
	return cfg
}

// rig maps the case's arena, and the descriptor's command slot after it,
// for a layer of the cell's, traced if seen is not nil, and returns the slot.
func (c *diffCase) rig(t testing.TB, workers int, fusion bool, seen *traced) (*testRig, phys.Addr) {
	cfg := c.config(workers, fusion)
	if seen != nil {
		cfg.Tracer = seen.tr
	}
	r := rigOn(t, cfg, units.Bytes(len(c.mem))+c.d.Size()+64)
	copy(mapped(t, r), c.mem)
	r.alloc(len(c.mem))
	return r, r.alloc(int(c.d.Size()))
}

// launch encodes the descriptor at base and runs it as Run does, with the
// lowering cut into windows of window pass instances.
func (c *diffCase) launch(r *testRig, base phys.Addr, window int) (*Report, error) {
	if err := c.d.Encode(r.space, base); err != nil {
		return nil, err
	}
	if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
		return nil, err
	}
	if window == planWindow {
		return r.layer.Run(r.space, base)
	}
	d, err := descriptor.Decode(r.space, base)
	if err != nil {
		return nil, err
	}
	prog, err := r.layer.compile(d, window)
	if err != nil {
		return nil, err
	}
	slot, err := r.space.ViewBytes(base, descriptor.SlotBytes)
	if err != nil {
		return nil, err
	}
	return r.layer.launch(prog, r.space, base, slot)
}

// outcome is what one launch leaves: the mapped bytes, or its error.
type outcome struct {
	mem []byte
	err string
}

func exactly(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameReport compares every field of two reports by reflection, PerOp entry
// by entry, so that a field added to Report is compared without an edit:
// integers exactly, floats by eq.
func sameReport(t testing.TB, what string, got, want *Report, eq func(a, b float64) bool) {
	t.Helper()
	var diffs []string
	var walk func(path string, g, w reflect.Value)
	walk = func(path string, g, w reflect.Value) {
		if !g.IsValid() || !w.IsValid() || g.Kind() == reflect.Pointer && (g.IsNil() || w.IsNil()) {
			if g.IsValid() != w.IsValid() || g.IsValid() && g.IsNil() != w.IsNil() {
				diffs = append(diffs, path+": on one side only")
			}
			return
		}
		switch g.Kind() {
		case reflect.Pointer:
			walk(path, g.Elem(), w.Elem())
		case reflect.Struct:
			for i := range g.NumField() {
				walk(path+"."+g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		case reflect.Map:
			keys := g.MapKeys()
			for _, k := range w.MapKeys() {
				if !g.MapIndex(k).IsValid() {
					keys = append(keys, k)
				}
			}
			for _, k := range keys {
				walk(fmt.Sprintf("%s[%v]", path, k), g.MapIndex(k), w.MapIndex(k))
			}
		case reflect.Float64:
			if !eq(g.Float(), w.Float()) {
				diffs = append(diffs, fmt.Sprintf("%s: %v, want %v", path, g, w))
			}
		case reflect.Int64:
			if g.Int() != w.Int() {
				diffs = append(diffs, fmt.Sprintf("%s: %v, want %v", path, g, w))
			}
		default:
			t.Fatalf("%s: sameReport cannot compare a %v", path, g.Kind())
		}
	}
	walk("Report", reflect.ValueOf(got), reflect.ValueOf(want))
	if len(diffs) > 0 {
		t.Errorf("%s:\n\t%s", what, strings.Join(diffs, "\n\t"))
	}
}

// scoreboardShape counts the windows of window pass instances d is cut into
// on l, and their waves, every window lowered on the dependence scoreboard:
// what a run must lower and run, ranges or not.
func scoreboardShape(t testing.TB, l *Layer, d *descriptor.Descriptor, window int) (windows, waves int) {
	lw := lowering{}
	if err := l.lower(d, planExpand, &lw); err != nil {
		t.Fatal(err)
	}
	lw.window = window
	var q plan
	for more := true; more; more = lw.more() {
		lw = nodesOf(lw, &q)
		windows, waves = windows+1, waves+len(q.waves)
	}
	return windows, waves
}

// traced reads what the scheduler of a layer traced on tr emits.
type traced struct {
	tr                      *telemetry.Tracer
	lowers, compiles, waves int64
}

// next returns what the layer's runs emitted since the last call: the windows
// they lowered (plan_lower spans that are not a compile's; a program compiled
// as one window runs that window and lowers none) and the waves they ran
// (accel.waves_per_launch).
func (e *traced) next() (windows, waves int) {
	m := e.tr.Metrics().Snapshot()
	lowers := int64(e.tr.Spans()[telemetry.SpanPlanLower])
	compiles, sum := m.Counters["accel.compiles"], m.Histograms["accel.waves_per_launch"].Sum
	windows, waves = int(max(1, lowers-e.lowers-(compiles-e.compiles))), int(sum-e.waves)
	e.lowers, e.compiles, e.waves = lowers, compiles, sum
	return windows, waves
}

// activations counts the descriptor's COMP instances, LOOP iterations
// included: what Report.Comps must say.
func activations(d *descriptor.Descriptor) (n int64) {
	trips := int64(1)
	for _, in := range d.Instrs {
		switch in.Kind {
		case descriptor.KindLoop:
			trips = in.Counts.Total()
		case descriptor.KindEndLoop:
			trips = 1
		case descriptor.KindComp:
			n += trips
		}
	}
	return n
}

// checkCase runs c through every cell of the matrix against the reference
// cell (one worker, fusion on, whole windows, fresh) and requires:
//   - the same memory after every launch, or the same error text;
//   - of a compiled program, every launch returning its price, the pointer,
//     and its templates unchanged by the launches; of a fresh run, a report
//     equal field by field to that price;
//   - RunModel's report equal to the price within units.CloseTo;
//   - across fusion, equal Comps (the descriptor's activations), per-op
//     Invocations and Flops and ΣPerOp.Bytes; a report that differs only by
//     the DRAM traffic of ExplainPlan's fused groups, in less time;
//   - of a traced cell, the scheduler lowering and running as many windows and
//     waves as the dependence scoreboard lowers, which at planWindow are
//     ExplainPlan's.
func checkCase(t *testing.T, c *diffCase) {
	ref, base := c.rig(t, 1, true, nil)
	var want []outcome
	for range 3 {
		_, err := c.launch(ref, base, planWindow)
		if err != nil {
			want = append(want, outcome{err: err.Error()})
			break
		}
		want = append(want, outcome{mem: slices.Clone(mapped(t, ref))})
	}

	var prices [2]*Report
	var infos [2]PlanInfo
	fusions := []bool{true, false}
	for fi, fusion := range fusions {
		l := mustLayer(t, c.config(1, fusion))
		prog, err := l.Compile(c.d)
		if err != nil {
			t.Fatal(err)
		}
		price := prog.Report()
		model, merr := l.RunModel(c.d)
		switch {
		case price == nil && (merr == nil || merr.Error() != want[0].err):
			t.Fatalf("fusion %v: a program without a price, RunModel %v, the launch %q", fusion, merr, want[0].err)
		case price != nil && merr != nil:
			t.Fatalf("fusion %v: RunModel %v, but the program has a price", fusion, merr)
		case price != nil:
			sameReport(t, fmt.Sprintf("fusion %v: RunModel against the price", fusion), model, price, units.CloseTo)
			if price.Comps != activations(c.d) {
				t.Errorf("fusion %v: %d comps priced, the descriptor has %d", fusion, price.Comps, activations(c.d))
			}
		}
		if infos[fi], err = l.ExplainPlan(c.d); err != nil {
			t.Fatal(err)
		}
		if _, waves := scoreboardShape(t, l, c.d, planWindow); waves != infos[fi].Waves {
			t.Errorf("fusion %v: ExplainPlan has %d waves, the scoreboard %d", fusion, infos[fi].Waves, waves)
		}
		prices[fi] = price
	}
	if on, off := prices[0], prices[1]; on != nil {
		conservedAcrossFusion(t, on, off, infos[0].Fused)
	}
	fusionIsLegal(t, c.d, infos[0].Fused)

	for _, workers := range []int{1, 4} {
		for fi, fusion := range fusions {
			for _, window := range []int{1, 3, 7, planWindow} {
				windows, waves := scoreboardShape(t, mustLayer(t, c.config(1, fusion)), c.d, window)
				for _, compiled := range []bool{false, true} {
					cell := fmt.Sprintf("workers %d, fusion %v, window %d, compiled %v", workers, fusion, window, compiled)
					var seen *traced
					if workers > 1 {
						seen = &traced{tr: telemetry.New()}
					}
					r, base := c.rig(t, workers, fusion, seen)
					var prog *Program
					var before []nodeTemplate
					if compiled {
						prog = compileIn(t, r.layer, c.d, window)
						if err := prog.Install(r.space, base); err != nil {
							t.Fatal(err)
						}
						before = templatesOf(prog)
					}
					for round, w := range want {
						if !compiled && round > 0 {
							break
						}
						var rep *Report
						var err error
						if compiled {
							if err = descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
								t.Fatal(err)
							}
							rep, err = r.layer.RunProgram(r.space, base, prog)
						} else {
							rep, err = c.launch(r, base, window)
						}
						if err != nil || w.err != "" {
							if err == nil || err.Error() != w.err {
								t.Fatalf("%s, launch %d: error %v, want %q", cell, round, err, w.err)
							}
							break
						}
						if got := mapped(t, r); !bytes.Equal(got, w.mem) {
							at := 0
							for got[at] == w.mem[at] {
								at++
							}
							t.Fatalf("%s, launch %d: memory differs from the reference first at %v", cell, round, arenaBase+phys.Addr(at))
						}
						if compiled && rep != prog.Report() {
							t.Fatalf("%s, launch %d: a report that is not the program's price", cell, round)
						}
						if !compiled {
							sameReport(t, cell+": the fresh run against the compiled price", rep, prices[fi], exactly)
						}
						if seen == nil {
							continue
						}
						if gotWindows, gotWaves := seen.next(); gotWindows != windows || gotWaves != waves {
							t.Errorf("%s, launch %d: the scheduler lowered %d windows and ran %d waves, the scoreboard lowers %d and %d",
								cell, round, gotWindows, gotWaves, windows, waves)
						}
					}
					if compiled && !reflect.DeepEqual(before, templatesOf(prog)) {
						t.Fatalf("%s: a launch wrote to the program's templates", cell)
					}
				}
			}
		}
	}
}

// conservedAcrossFusion holds the fused price on to the unfused one: the
// same work, and the DRAM traffic of the fused groups elided in less time.
func conservedAcrossFusion(t *testing.T, on, off *Report, fused []FusedGroup) {
	var onBytes, offBytes units.Bytes
	for op, st := range off.PerOp {
		fst := on.PerOp[op]
		if fst == nil || fst.Invocations != st.Invocations || !exactly(float64(fst.Flops), float64(st.Flops)) {
			t.Errorf("%v: fused %+v, unfused %+v", op, fst, st)
		}
		offBytes += st.Bytes
	}
	for _, st := range on.PerOp {
		onBytes += st.Bytes
	}
	if on.Comps != off.Comps || len(on.PerOp) != len(off.PerOp) || onBytes != offBytes {
		t.Errorf("fused %d comps, %d ops, %v; unfused %d, %d, %v", on.Comps, len(on.PerOp), onBytes, off.Comps, len(off.PerOp), offBytes)
	}
	if len(fused) == 0 {
		sameReport(t, "nothing fused: the price with fusion on against off", on, off, exactly)
		return
	}
	var elided units.Bytes
	for _, g := range fused {
		elided += 2 * g.HandoffBytes * units.Bytes(g.Iters)
	}
	if on.ElidedBytes-off.ElidedBytes != elided || on.Time >= off.Time {
		t.Errorf("fused: %v elided in %v; unfused: %v in %v; the groups hand off %v", on.ElidedBytes, on.Time, off.ElidedBytes, off.Time, elided/2)
	}
}

// fusionIsLegal holds ExplainPlan's fused groups to the two rules fusion
// keeps, on every comp's footprint re-derived at every iteration
// (Args.appendIO): no pass of a group writes bytes an earlier pass of it
// reads (the chained stages stream concurrently), and no comp but a
// handoff's producer and consumer touches the handoff.
func fusionIsLegal(t *testing.T, d *descriptor.Descriptor, groups []FusedGroup) {
	if len(groups) == 0 {
		return
	}
	type foot struct{ reads, writes span.Set }
	var comps []*foot
	var passes [][]*foot
	var pass []*foot
	counts := descriptor.LoopCounts{1, 1, 1, 1}
	for _, in := range d.Instrs {
		switch in.Kind {
		case descriptor.KindLoop:
			counts = in.Counts
		case descriptor.KindEndLoop:
			counts = descriptor.LoopCounts{1, 1, 1, 1}
		case descriptor.KindEndPass:
			passes, pass = append(passes, pass), nil
		case descriptor.KindComp:
			p, _ := d.ParamsOf(len(comps))
			a, err := Bind(in.Op, p)
			if err != nil {
				t.Fatalf("a fused group in a descriptor with a comp that does not bind: %v", err)
			}
			f := &foot{}
			for idx := range counts.Total() {
				spans, _ := a.appendIO(nil, iterVecAt(counts, idx))
				for _, s := range spans {
					if s.Write {
						f.writes.Add(s.Span)
					} else {
						f.reads.Add(s.Span)
					}
				}
			}
			comps, pass = append(comps, f), append(pass, f)
		}
	}
	overlaps := func(a, b *span.Set) bool {
		for _, s := range a.All() {
			if b.Overlaps(s) {
				return true
			}
		}
		return false
	}
	for _, g := range groups {
		group := passes[g.FirstPass : g.FirstPass+g.Passes]
		for i, a := range group {
			for _, b := range group[i+1:] {
				for _, ac := range a {
					for _, bc := range b {
						if overlaps(&bc.writes, &ac.reads) {
							t.Errorf("fused group %+v: a later pass writes bytes an earlier one reads", g)
						}
					}
				}
			}
			if i+1 == len(group) {
				continue
			}
			producer, consumer := a[len(a)-1], group[i+1][0]
			for _, c := range comps {
				if c != producer && c != consumer && (overlaps(&producer.writes, &c.reads) || overlaps(&producer.writes, &c.writes)) {
					t.Errorf("fused group %+v: a third comp touches a handoff", g)
				}
			}
		}
	}
}

// FuzzDifferential is the matrix over generated cases, seeded with every
// fixture and the draws below.
//
// Gate (check.sh): bit-identity.
func FuzzDifferential(f *testing.F) {
	for i := range fixtures {
		f.Add([]byte{0, shapeFixture, byte(i)})
	}
	// A chained LOOP whose every iteration spills and crosses the links.
	f.Add(fixtureSeed(f, "ChainedPassLoop", flagSmallLM|flagRemote))
	for _, s := range drawnSeeds {
		f.Add(append([]byte{s.flags, s.shape}, *randomBits(rand.New(rand.NewSource(s.source)), 142)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkCase(t, genCase(t, data)) })
}

// drawnSeeds are draws of the generator on bytes of rand.NewSource(source),
// each by what it drew when it was chosen.
var drawnSeeds = []struct {
	source       int64
	flags, shape byte
}{
	{112, 0, shapeSegments},                   // top-level passes of six accelerators
	{98, flagSmallLM, shapeSegments},          // top-level passes with a fused RESMP→FFT pair and spills
	{19, 0, shapeSegments},                    // top-level passes and a carried nest, two fused groups
	{29, flagSmallLM | flagRemote, shapeNest}, // a conflict-free nest that spills and crosses the links
	{5, 0, shapeNest},                         // a carried nest
	{12, 0, shapeNest},                        // operands that share bytes and advance by different strides
	{8, 0, shapeNest},                         // a conflict-free RESMP→FFT nest whose FFT writes what the RESMP reads
	{4, flagFailing, shapeSegments},           // top-level passes with an AXPY that does not bind
	{12, flagFailing, shapeSegments},          // top-level passes with an FFT reading an unmapped address
	{1, flagFailing, shapeNest},               // a nest with an AXPY that does not bind: a barrier
	{8, flagFailing, shapeNest},               // a nest with an FFT reading an unmapped address
}
