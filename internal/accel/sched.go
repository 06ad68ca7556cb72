package accel

import (
	"math"
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

// runBlock runs block c of the wave on worker w.
func (r *planRun) runBlock(w, c int) error {
	b := r.blocks[c]
	return r.runRange(w, b.k, int(b.lo), int(b.n))
}

// runSpan runs block c of a merged range (runNest): its instances
// [c·size, c·size+size), the last block perhaps shorter.
func (r *planRun) runSpan(w, c int) error {
	lo := c * r.size
	return r.runRange(w, 0, lo, min(r.size, int(r.win.nodes[0].n)-lo))
}

// runRange runs instances [lo, lo+n) of node k of the window on worker w, one
// comp over the block after the other (an instance a comp failed runs no
// more): the instances of a range do not conflict. The span lands on the
// launch's buffer for worker 0, else on the one the worker took on its first
// block.
func (r *planRun) runRange(w int, k int32, lo, n int) error {
	tb := r.tb
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
	// buffers; run and span are runBlock and runSpan, bound once per record.
	blocks    []block
	bufs      []*telemetry.Buf
	run, span func(w, c int) error
	// merged is the one range runNest merges windows into, and size its
	// blocks' size.
	merged plan
	size   int
	// failed is the first failure in program order.
	failed atomic.Pointer[failure]
	// waves counts the waves run so far: wave numbers run on from one window
	// to the next.
	waves int
}

// runs holds the records of finished runs.
var runs = sync.Pool{New: func() any {
	r := new(planRun)
	r.run, r.span = r.runBlock, r.runSpan
	return r
}}

// release returns the record to the pool with nothing of the run in it but
// its own storage: no program, window, space, trace buffer or failure.
func (r *planRun) release() {
	if r.own != nil {
		clear(r.own.nodes[:cap(r.own.nodes)])
		r.own.body = nil
	}
	clear(r.merged.nodes[:cap(r.merged.nodes)])
	r.merged.body = nil
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

// exec runs a compiled program window by window against s. A window that is
// one range of a one-pass conflict-free nest runs together with the windows
// that continue it (runNest).
func (l *Layer) exec(prog *Program, s *phys.Space, tb *telemetry.Buf) error {
	r := runs.Get().(*planRun)
	r.l, r.prog, r.lw, r.space, r.tb = l, prog, prog.lw, s, tb
	l.met.fusedGroups.Add(int64(len(r.lw.fused)))
	l.met.fusionSpills.Add(int64(r.lw.fusionSpills))
	r.nextWindow()
	for {
		var err error
		lowered := false // whether runNest left the next window current
		if r.win.oneRange() && r.lw.more() {
			lowered, err = l.runNest(r)
		} else {
			err = l.runPlan(r)
		}
		if err != nil {
			r.release()
			return err
		}
		if !lowered {
			if !r.lw.more() {
				break
			}
			r.nextWindow()
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

// workers is how many workers run a wave of width pass instances: cfg.Workers
// if set (1 forces serial), else par.Workers(Tiles) as the budget allows (auto),
// never more than width; a wave no wider than one runs serially without
// asking.
func (l *Layer) workers(width int) (workers int, auto bool) {
	if width <= 1 {
		return 1, false
	}
	if workers = l.cfg.Workers; workers == 0 {
		workers, auto = par.Workers(l.cfg.Tiles), true
	}
	return min(workers, width), auto
}

// blockSize is the instances per block of a wave of width run by workers: the
// width over 8·workers, so that a slow core still sheds work.
func blockSize(width, workers int) int {
	if width > 8*workers {
		return min(maxBlock, width/(8*workers))
	}
	return 1
}

// runPlan executes the launch's current window wave by wave, each wave in
// blocks (blockSize), one block per chunk on par, on as many workers as its
// widest wave takes. A wave with a failure ends the run (its dependents must
// not run) with the first error in program order, as serial execution would
// return. A window run by more than one worker brackets every wave (span and
// histogram).
func (l *Layer) runPlan(r *planRun) error {
	p := r.win
	workers, auto := l.workers(p.maxWidth())
	base := r.waves
	r.waves += len(p.waves)
	for wi, wave := range p.waves {
		width := p.width(wave)
		if workers > 1 {
			l.met.waveWidth.Observe(int64(width))
		}
		size := int32(blockSize(width, workers))
		r.blocks = r.blocks[:0]
		for _, k := range wave {
			for lo, n := int32(0), p.nodes[k].n; lo < n; lo += size {
				r.blocks = append(r.blocks, block{k, lo, min(size, n-lo)})
			}
		}
		if err := r.fan(len(r.blocks), workers, auto, r.run, base+wi, width); err != nil {
			return err
		}
	}
	return nil
}

// runNest runs the current window, one range of a one-pass conflict-free nest
// (plan.oneRange), and the windows after it that continue the range, as one
// range in one fan-out: no two instances of such a nest conflict, so the
// windows need not run back to back. They are still lowered one by one, and
// count their waves as their own runs would. It reports whether it left the
// first window that does not continue the range lowered, as the current
// window, for the caller to run. A failure is the first in program order
// across the merged windows.
func (l *Layer) runNest(r *planRun) (lowered bool, err error) {
	m := &r.merged
	m.nodes, m.body = append(m.nodes[:0], r.win.nodes[0]), r.win.body
	base := r.waves
	for {
		width := int(r.win.nodes[0].n)
		if w, _ := l.workers(width); w > 1 {
			l.met.waveWidth.Observe(int64(width))
		}
		r.waves++
		if !r.lw.more() {
			break
		}
		r.nextWindow()
		nd := &r.win.nodes[0]
		if lowered = !r.win.oneRange() || nd.tmpl != m.nodes[0].tmpl || int64(m.nodes[0].n)+int64(nd.n) > math.MaxInt32; lowered {
			break
		}
		m.nodes[0].n += nd.n
	}
	own := r.win
	r.win = m
	width := int(m.nodes[0].n)
	workers, auto := l.workers(width)
	r.size = blockSize(width, workers)
	err = r.fan((width+r.size-1)/r.size, workers, auto, r.span, base, width)
	r.win = own
	return lowered, err
}

// fan runs chunks of a wave on par, bracketed (span) when more than one
// worker runs it, and returns the run's first failure.
func (r *planRun) fan(chunks, workers int, auto bool, body func(w, c int) error, wave, width int) error {
	r.bufs = slices.Grow(r.bufs[:0], workers)[:workers]
	if workers > 1 {
		r.tb.Begin(telemetry.SpanWave, "wave")
	}
	if auto {
		_ = par.Do(chunks, workers, body)
	} else {
		_ = par.Fixed(chunks, workers, body)
	}
	for _, b := range r.bufs[1:] {
		b.Release()
	}
	clear(r.bufs[1:])
	if workers > 1 {
		r.tb.End2(telemetry.SpanWave, 0,
			telemetry.Arg{Key: "wave", Val: int64(wave)},
			telemetry.Arg{Key: "width", Val: int64(width)})
	}
	if f := r.failed.Load(); f != nil {
		return f.err
	}
	return nil
}
