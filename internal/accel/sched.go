package accel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Wavefront scheduler over the execution-plan IR (plan.go). Nodes execute
// in topological waves: wave w starts only after wave w-1 completed, and
// within a wave every node is pairwise independent (conflicting nodes are
// ordered by dependence edges, and waves strictly increase along edges).
// Independent work therefore runs concurrently on the worker pool while
// dependent work pipelines wave by wave — an SPMV loop's serial chain
// interleaves with unrelated passes instead of serialising the whole
// descriptor.
//
// Determinism: a node's sub-report is its template's, priced before anything
// runs; sub-reports merge in node (program) order regardless of which
// goroutine ran which node, and memory effects are ordered by the edges.
// Serial (Workers=1) and scheduled runs are therefore bit-identical in both
// memory and Report.

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

// runNode executes node k of the window: its template's comps at the node's
// iteration (nothing on the analytic path). What the node costs is the
// template's sub-report. The node's span lands on tb, the buffer of whichever
// goroutine runs it.
func (l *Layer) runNode(r *planRun, k int32, tb *telemetry.Buf) error {
	nd := &r.win.nodes[k]
	t := nd.tmpl
	if tb != nil {
		tb.Begin(telemetry.SpanNode, t.name)
	}
	err := t.err
	for i := 0; i < len(t.comps) && r.space != nil; i++ {
		if rerr := t.comps[i].spec.run(r.space, t.comps[i], nd.it); rerr != nil {
			err = rerr
			break
		}
	}
	if err != nil {
		tb.End(telemetry.SpanNode, 0)
		return err
	}
	tb.End2(telemetry.SpanNode, t.time,
		telemetry.Arg{Key: "scale", Val: t.scale},
		telemetry.Arg{Key: "comps", Val: t.ncomps})
	l.met.nodes.Add(1)
	return nil
}

// merge folds one node's sub-report into the launch's report. It runs once
// per node, in node order, and adds the per-op stats in op-table order, so
// the float accumulation sequence is a pure function of the node order —
// never of goroutine completion order.
func (r *planRun) merge(t *nodeTemplate) {
	rep := r.rep
	rep.Time += t.time
	rep.Energy += t.energy
	rep.Comps += t.ncomps
	rep.NoCBytes += t.noc
	rep.LMSpillBytes += t.spill
	rep.RemoteBytes += t.remote
	rep.ElidedBytes += t.elided
	for i := range t.ops {
		o := &t.ops[i]
		agg := r.agg[o.op]
		if agg == nil {
			agg = rep.opStats(o.op)
			r.agg[o.op] = agg
		}
		agg.Invocations += o.Invocations
		agg.Time += o.Time
		agg.Energy += o.Energy
		agg.Flops += o.Flops
		agg.Bytes += o.Bytes
	}
}

// planRun is one run of a program: the cursor over its windows, the window
// being run and what the windows share. Everything a run writes is here or in
// memory; the program is shared with every other run of it. It is one heap
// object, not locals of exec: a submitted launch runs on a new goroutine, and
// what exec, runPlan and runNode hold on that small stack decides whether it
// must grow before the kernel is reached.
type planRun struct {
	prog *Program
	// lw is the run's copy of the program's lowering: its cursor. win is the
	// window being run: the program's own when it has one, else the run's,
	// which the cursor refills.
	lw  lowering
	win *plan
	// space is what the comps run against; nil evaluates analytically.
	space *phys.Space
	tb    *telemetry.Buf
	hooks WaveHooks
	// rep merges the sub-reports of every window in node order; agg is where
	// it accumulates each accelerator's stats, and errs the scheduler's
	// per-node results for the window.
	rep  *Report
	agg  [len(specs)]*OpStats
	errs []error
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
		telemetry.Arg{Key: "nodes", Val: int64(len(r.win.nodes))},
		telemetry.Arg{Key: "waves", Val: int64(len(r.win.waves))})
}

// exec runs a compiled program window by window, functionally against s or,
// with a nil s, analytically. Non-nil hooks hear of every window's waves
// before it runs and bracket each wave with WaveStart/WaveDone (hooks.go).
func (l *Layer) exec(prog *Program, s *phys.Space, tb *telemetry.Buf, hooks WaveHooks) (*Report, error) {
	r := &planRun{prog: prog, lw: prog.lw, space: s, tb: tb, hooks: hooks, rep: newReport()}
	l.met.fusedGroups.Add(int64(len(r.lw.fused)))
	l.met.fusionSpills.Add(int64(r.lw.fusionSpills))
	r.rep.Time, r.elapsed = r.lw.fixed, r.lw.fixed
	for {
		r.nextWindow()
		if err := l.runPlan(r); err != nil {
			return nil, err
		}
		if !r.lw.more() {
			break
		}
	}
	l.met.wavesPerLaunch.Observe(int64(r.waves))
	return r.rep, nil
}

// runPlan executes the launch's current window, after announcing its waves
// to the hooks, and merges its sub-reports into the launch's report. The
// first error in node order wins, matching what serial execution would
// have returned. Hooks force the wave loop even at one worker, so external
// gating sees the same wave boundaries either way; sub-reports still merge
// in node order, keeping hooked and unhooked runs bit-identical.
func (l *Layer) runPlan(r *planRun) error {
	p := r.win
	workers := l.planWorkers(p)
	base := r.waves
	r.waves += len(p.waves)
	if r.hooks != nil {
		r.hooks.Lowered(r.prog.wavesOf(p), r.lw.more())
	}
	if workers <= 1 && r.hooks == nil {
		// Serial: node order is a topological order (edges always point
		// forward), so in-order execution respects every edge.
		for k := range p.nodes {
			if err := l.runNode(r, int32(k), r.tb); err != nil {
				return err
			}
			r.merge(p.nodes[k].tmpl)
		}
		return nil
	}
	r.errs = append(r.errs[:0], make([]error, len(p.nodes))...)
	failed := false
	for wi, wave := range p.waves {
		l.met.waveWidth.Observe(int64(len(wave)))
		if r.hooks != nil {
			r.hooks.WaveStart(base + wi)
		}
		r.tb.Begin(telemetry.SpanWave, "wave")
		if len(wave) == 1 || workers == 1 {
			// Single-node waves (and hooked serial runs) execute inline: a
			// serial chain (SPMV loop, chained passes) must not pay
			// goroutine hand-off per node.
			for _, k := range wave {
				r.errs[k] = l.runNode(r, k, r.tb)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < min(workers, len(wave)); i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Each wave worker records onto its own buffer; the
					// coordinator's wave span brackets them all.
					wb := l.tr.Buffer(telemetry.TrackAccel)
					defer wb.Release()
					for {
						pos := next.Add(1) - 1
						if pos >= int64(len(wave)) {
							return
						}
						k := wave[pos]
						r.errs[k] = l.runNode(r, k, wb)
					}
				}()
			}
			wg.Wait()
		}
		r.tb.End2(telemetry.SpanWave, 0,
			telemetry.Arg{Key: "wave", Val: int64(base + wi)},
			telemetry.Arg{Key: "width", Val: int64(len(wave))})
		for _, k := range wave {
			if r.errs[k] != nil {
				failed = true
			} else {
				r.elapsed += p.nodes[k].tmpl.time
			}
		}
		if r.hooks != nil {
			r.hooks.WaveDone(base+wi, r.elapsed)
		}
		if failed {
			// Dependents of the failed node must not run; later waves are
			// abandoned wholesale (conservative, still deterministic).
			break
		}
	}
	if failed {
		for _, err := range r.errs {
			if err != nil {
				return err
			}
		}
	}
	for k := range p.nodes {
		r.merge(p.nodes[k].tmpl)
	}
	return nil
}
