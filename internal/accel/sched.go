package accel

import (
	"slices"
	"sync"
	"sync/atomic"

	"mealib/internal/par"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
)

// Wavefront scheduler over the execution-plan IR (plan.go). Ranges execute
// in topological waves: wave w starts only after wave w-1 completed, and no
// two pass instances of a wave conflict (conflicting instances are ordered by
// dependence edges, and waves strictly increase along edges). A wave's
// instances run in blocks on internal/par, so independent work runs
// concurrently while dependent work pipelines wave by wave — an SPMV loop's
// serial chain interleaves with unrelated passes instead of serialising the
// whole descriptor.
//
// Determinism: memory effects are ordered by the edges, so serial
// (Workers=1) and scheduled runs leave memory bit-identical. The scheduler
// prices nothing: a launch's model numbers are its program's price, summed
// once in program order before any launch needs it (program.go), whichever
// goroutine ran which block.

// runBlock runs block c of the wave on worker w, one comp over the block
// after the other (an instance a comp failed runs no more): the instances of
// a range do not conflict. The span lands on the launch's buffer for worker
// 0, else on the one the worker took on its first block.
func (r *planRun) runBlock(w, c int) error {
	tb, k, lo, n := r.tb, r.blocks[c].k, int(r.blocks[c].lo), int(r.blocks[c].n)
	if w > 0 {
		if r.bufs[w] == nil {
			r.bufs[w] = r.l.tr.Buffer(telemetry.TrackAccel)
		}
		tb = r.bufs[w]
	}
	p, t := r.win, r.win.nodes[k].tmpl
	if tb != nil {
		tb.Begin(telemetry.SpanNode, t.name)
	}
	b := iters{it: p.iterAt(k, lo), counts: t.counts, n: n}
	for i := range t.comps {
		b = t.comps[i].spec.core.run(r.space, &t.comps[i], b)
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
		r.l.met.nodes.Add(int64(n))
		return nil
	}
	tb.End(telemetry.SpanNode, 0)
	// Keep the failure first in program order, whichever block reports first.
	f := &failure{int(p.nodes[k].ord) + (lo+b.at)*max(1, len(p.body)), b.err}
	for old := r.failed.Load(); old == nil || f.at < old.at; old = r.failed.Load() {
		if r.failed.CompareAndSwap(old, f) {
			break
		}
	}
	return nil
}

// planRun is one run of a program: the cursor over its windows, the window
// being run and what the windows share. Everything a run writes is here or in
// memory; the program is shared with every other run of it. It is one heap
// object, not locals of exec: a submitted launch runs on a new goroutine, and
// what exec, runPlan and runBlock hold on that small stack decides whether it
// must grow before the kernel is reached. The object comes from a pool, so a
// launch allocates none.
type planRun struct {
	l    *Layer
	prog *Program
	// lw is the run's copy of the program's lowering: its cursor. win is the
	// window being run: the program's own when it has one, else own, which the
	// cursor refills. own stays with the record in the pool and is never the
	// program's window: a record that kept a shared window would lower another
	// program's windows into it.
	lw       lowering
	win, own *plan
	// space is what the comps run against.
	space *phys.Space
	tb    *telemetry.Buf
	// blocks are the chunks of the wave running, bufs[1:] its helpers' trace
	// buffers and run is runBlock, bound once per record.
	blocks []block
	bufs   []*telemetry.Buf
	run    func(w, c int) error
	// failed is the first failure in program order.
	failed atomic.Pointer[failure]
	// waves counts the waves run so far: wave numbers run on from one window
	// to the next.
	waves int
}

// runs holds the records of finished runs.
var runs = sync.Pool{New: func() any {
	r := new(planRun)
	r.run = r.runBlock
	return r
}}

// release returns the record to the pool with nothing of the run in it but
// its own storage: no program, window, space, trace buffer or failure.
func (r *planRun) release() {
	if r.own != nil {
		clear(r.own.nodes[:cap(r.own.nodes)])
		r.own.body = nil
	}
	r.l, r.prog, r.lw, r.win, r.space, r.tb, r.waves = nil, nil, lowering{}, nil, nil, nil, 0
	r.blocks = r.blocks[:0]
	r.failed.Store(nil)
	runs.Put(r)
}

// nextWindow makes the program's next window current: the one it was compiled
// with, or the next the cursor lowers.
func (r *planRun) nextWindow() {
	if r.prog.win != nil {
		r.win, r.lw.seg = r.prog.win, len(r.lw.segs)
		return
	}
	r.tb.Begin(telemetry.SpanPlanLower, "lower")
	if r.own == nil {
		r.own = new(plan)
	}
	r.win = r.own
	r.lw.next(r.win)
	r.tb.End2(telemetry.SpanPlanLower, 0,
		telemetry.Arg{Key: "nodes", Val: int64(r.win.size)},
		telemetry.Arg{Key: "waves", Val: int64(len(r.win.waves))})
}

// exec runs a compiled program window by window against s.
func (l *Layer) exec(prog *Program, s *phys.Space, tb *telemetry.Buf) error {
	r := runs.Get().(*planRun)
	r.l, r.prog, r.lw, r.space, r.tb = l, prog, prog.lw, s, tb
	l.met.fusedGroups.Add(int64(len(r.lw.fused)))
	l.met.fusionSpills.Add(int64(r.lw.fusionSpills))
	for {
		r.nextWindow()
		if err := l.runPlan(r); err != nil {
			r.release()
			return err
		}
		if !r.lw.more() {
			break
		}
	}
	l.met.wavesPerLaunch.Observe(int64(r.waves))
	r.release()
	return nil
}

// failure is a failed pass instance: its window position and its error.
type failure struct {
	at  int
	err error
}

// block is a chunk of a wave: instances [lo, lo+n) of node k.
type block struct{ k, lo, n int32 }

// runPlan executes the launch's current window wave by wave, each wave in
// blocks of its width over 8·workers, so that a slow core still sheds work,
// one block per chunk on par. The workers are cfg.Workers if set (1 forces
// serial), else par.Workers(Tiles) as the budget allows, never more than
// the widest wave; a window no wave of which is wider than one runs
// serially without asking. A wave with a failure ends the run (its
// dependents must not run) with the first error in program order, as serial
// execution would return. A window run by more than one worker brackets
// every wave (span and histogram).
func (l *Layer) runPlan(r *planRun) error {
	p := r.win
	workers, fanOut := 1, par.Fixed
	if width := p.maxWidth(); width > 1 {
		if workers = l.cfg.Workers; workers == 0 {
			workers, fanOut = par.Workers(l.cfg.Tiles), par.Do
		}
		workers = min(workers, width)
	}
	r.bufs = slices.Grow(r.bufs[:0], workers)[:workers]
	base := r.waves
	r.waves += len(p.waves)
	bracket := workers > 1
	for wi, wave := range p.waves {
		width := p.width(wave)
		if bracket {
			l.met.waveWidth.Observe(int64(width))
			r.tb.Begin(telemetry.SpanWave, "wave")
		}
		size := int32(1)
		if width > 8*workers {
			size = int32(min(maxBlock, width/(8*workers)))
		}
		r.blocks = r.blocks[:0]
		for _, k := range wave {
			for lo, n := int32(0), p.nodes[k].n; lo < n; lo += size {
				r.blocks = append(r.blocks, block{k, lo, min(size, n-lo)})
			}
		}
		_ = fanOut(len(r.blocks), workers, r.run)
		for _, b := range r.bufs[1:] {
			b.Release()
		}
		clear(r.bufs[1:])
		if bracket {
			r.tb.End2(telemetry.SpanWave, 0,
				telemetry.Arg{Key: "wave", Val: int64(base + wi)},
				telemetry.Arg{Key: "width", Val: int64(width)})
		}
		if f := r.failed.Load(); f != nil {
			return f.err
		}
	}
	return nil
}
