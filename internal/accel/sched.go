package accel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Wavefront scheduler over the execution-plan IR (plan.go). Ranges execute
// in topological waves: wave w starts only after wave w-1 completed, and no
// two pass instances of a wave conflict (conflicting instances are ordered by
// dependence edges, and waves strictly increase along edges). Workers claim a
// wave's instances in blocks from one atomic cursor, so independent work runs
// concurrently while dependent work pipelines wave by wave — an SPMV loop's
// serial chain interleaves with unrelated passes instead of serialising the
// whole descriptor.
//
// Determinism: memory effects are ordered by the edges, so serial
// (Workers=1) and scheduled runs leave memory bit-identical. The scheduler
// prices nothing: a launch's model numbers are its program's price, summed
// once in program order before any launch needs it (program.go), whichever
// goroutine ran which block.

// planWorkers sizes the pool for a plan: cfg.Workers if set (1 forces
// serial), else min(GOMAXPROCS, Tiles), never wider than the plan's widest
// wave.
func (l *Layer) planWorkers(p *plan) int {
	w := l.cfg.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > l.cfg.Tiles {
			w = l.cfg.Tiles
		}
	}
	return max(1, min(w, p.maxWidth()))
}

// runBlock executes instances [lo, lo+n) of node k, one comp over the block
// after the other (an instance a comp failed runs no more): the instances of
// a range do not conflict. The block's span lands on tb, the buffer of
// whichever goroutine runs it.
func (l *Layer) runBlock(r *planRun, k int32, lo, n int, tb *telemetry.Buf) {
	p, t := r.win, r.win.nodes[k].tmpl
	if tb != nil {
		tb.Begin(telemetry.SpanNode, t.name)
	}
	b := iters{it: p.iterAt(k, lo), counts: t.counts, n: n}
	for i := range t.comps {
		b = t.comps[i].spec.run(r.space, t.comps[i], b)
	}
	if t.err != nil && b.failed&1 == 0 {
		// Every instance fails, the first with t.err unless a comp failed it.
		b.at, b.err = 0, t.err
	}
	if b.err == nil {
		if tb != nil {
			tb.End2(telemetry.SpanNode, t.time,
				telemetry.Arg{Key: "iters", Val: int64(n)},
				telemetry.Arg{Key: "comps", Val: t.ncomps})
		}
		l.met.nodes.Add(int64(n))
		return
	}
	tb.End(telemetry.SpanNode, 0)
	// Keep the failure first in program order, whichever block reports first.
	f := &failure{int(p.nodes[k].ord) + (lo+b.at)*max(1, len(p.body)), b.err}
	for old := r.failed.Load(); old == nil || f.at < old.at; old = r.failed.Load() {
		if r.failed.CompareAndSwap(old, f) {
			break
		}
	}
}

// planRun is one run of a program: the cursor over its windows, the window
// being run and what the windows share. Everything a run writes is here or in
// memory; the program is shared with every other run of it. It is one heap
// object, not locals of exec: a submitted launch runs on a new goroutine, and
// what exec, runPlan and runBlock hold on that small stack decides whether it
// must grow before the kernel is reached.
type planRun struct {
	prog *Program
	// lw is the run's copy of the program's lowering: its cursor. win is the
	// window being run: the program's own when it has one, else the run's,
	// which the cursor refills.
	lw  lowering
	win *plan
	// space is what the comps run against.
	space *phys.Space
	tb    *telemetry.Buf
	hooks WaveHooks
	// blocks are the claims on the wave running.
	blocks []block
	// failed is the first failure in program order.
	failed atomic.Pointer[failure]
	// waves counts the waves run so far — wave numbers run on from one
	// window to the next — and elapsed is the model time through the last.
	waves   int
	elapsed units.Seconds
}

// nextWindow makes the program's next window current: the one it was compiled
// with, or the next the cursor lowers.
func (r *planRun) nextWindow() {
	if r.prog.win != nil {
		r.win, r.lw.seg = r.prog.win, len(r.lw.segs)
		return
	}
	r.tb.Begin(telemetry.SpanPlanLower, "lower")
	if r.win == nil {
		r.win = new(plan)
	}
	r.lw.next(r.win)
	r.tb.End2(telemetry.SpanPlanLower, 0,
		telemetry.Arg{Key: "nodes", Val: int64(r.win.size)},
		telemetry.Arg{Key: "waves", Val: int64(len(r.win.waves))})
}

// exec runs a compiled program window by window against s. Non-nil hooks
// hear of every window's waves before it runs and bracket each wave with
// WaveStart/WaveDone (hooks.go).
func (l *Layer) exec(prog *Program, s *phys.Space, tb *telemetry.Buf, hooks WaveHooks) error {
	r := &planRun{prog: prog, lw: prog.lw, space: s, tb: tb, hooks: hooks, elapsed: prog.lw.fixed}
	l.met.fusedGroups.Add(int64(len(r.lw.fused)))
	l.met.fusionSpills.Add(int64(r.lw.fusionSpills))
	for {
		r.nextWindow()
		if err := l.runPlan(r); err != nil {
			return err
		}
		if !r.lw.more() {
			break
		}
	}
	l.met.wavesPerLaunch.Observe(int64(r.waves))
	return nil
}

// failure is a failed pass instance: its window position and its error.
type failure struct {
	at  int
	err error
}

// block is a claim of a wave worker: instances [lo, lo+n) of node k.
type block struct{ k, lo, n int32 }

// runPlan executes the launch's current window wave by wave, after
// announcing its waves to the hooks. A wave with a failure ends the run (its dependents must
// not run) with the first error in program order, as serial execution would
// return. Hooks or workers bracket every wave (span, histogram, WaveStart and
// WaveDone), so gating sees the same waves at any worker count.
func (l *Layer) runPlan(r *planRun) error {
	p := r.win
	workers := l.planWorkers(p)
	base := r.waves
	r.waves += len(p.waves)
	if r.hooks != nil {
		r.hooks.Lowered(r.prog.wavesOf(p), r.lw.more())
	}
	bracket := workers > 1 || r.hooks != nil
	for wi, wave := range p.waves {
		width := p.width(wave)
		if bracket {
			l.met.waveWidth.Observe(int64(width))
			if r.hooks != nil {
				r.hooks.WaveStart(base + wi)
			}
			r.tb.Begin(telemetry.SpanWave, "wave")
		}
		l.runWave(r, wave, width, workers)
		if bracket {
			r.tb.End2(telemetry.SpanWave, 0,
				telemetry.Arg{Key: "wave", Val: int64(base + wi)},
				telemetry.Arg{Key: "width", Val: int64(width)})
		}
		if r.hooks != nil {
			// The model time through the wave, added in program order.
			p.inOrder(wave, func(k int32, _ int) bool { r.elapsed += p.nodes[k].tmpl.time; return true })
			r.hooks.WaveDone(base+wi, r.elapsed)
		}
		if f := r.failed.Load(); f != nil {
			return f.err
		}
	}
	return nil
}

// runWave runs the wave in blocks of its width over 8·workers, so that a
// slow core still sheds work: inline for one worker or instance, else claimed
// from one atomic cursor by up to workers goroutines.
func (l *Layer) runWave(r *planRun, wave []int32, width, workers int) {
	size := int32(1)
	if width > 8*workers {
		size = int32(min(maxBlock, width/(8*workers)))
	}
	if workers == 1 || width == 1 {
		for _, k := range wave {
			for lo, n := int32(0), r.win.nodes[k].n; lo < n; lo += size {
				l.runBlock(r, k, int(lo), int(min(size, n-lo)), r.tb)
			}
		}
		return
	}
	r.blocks = r.blocks[:0]
	for _, k := range wave {
		for lo, n := int32(0), r.win.nodes[k].n; lo < n; lo += size {
			r.blocks = append(r.blocks, block{k, lo, min(size, n-lo)})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(r.blocks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each wave worker records onto its own buffer; the coordinator's
			// wave span brackets them all.
			wb := l.tr.Buffer(telemetry.TrackAccel)
			defer wb.Release()
			for i := next.Add(1) - 1; i < int64(len(r.blocks)); i = next.Add(1) - 1 {
				b := r.blocks[i]
				l.runBlock(r, b.k, int(b.lo), int(b.n), wb)
			}
		}()
	}
	wg.Wait()
}
