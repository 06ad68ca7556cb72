package accel

import (
	"slices"

	"mealib/internal/descriptor"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Execution-plan IR: a decoded descriptor is lowered into a DAG of ranges
// before anything runs. A range is one PASS datapath (chaining couples the
// comps of a pass, so a pass is the smallest unit the hardware schedules as a
// whole) at consecutive loop iterations, all in one wave; each is a pass
// instance. Edges are read-after-write, write-after-read and write-after-write
// span intersections, derived from the same affine base + Σ stride·index
// arithmetic the decode unit performs (span.Strided.At). A run executes it
// with the one wavefront scheduler in sched.go and reports the lowering's
// price (lowering.price), summed once per program; RunModel prices a lowering
// whose LOOPs collapse to a representative iteration carrying a scale factor,
// so paper-scale trip counts stay O(1) to evaluate, and schedules nothing.
//
// A descriptor lowers once (segments decoded and fused once, every pass
// bound, resolved and priced once into its template, template.go) and its
// program-order sequence of pass instances is cut into consecutive windows of
// at most planWindow. Each window is a plan of its own — edges, waves,
// scheduler — and the windows run back to back, so order across a window
// boundary is program order. A window wholly inside a nest proved
// conflict-free lowers to a few ranges per body pass; any other goes through
// the dependence scoreboard an instance at a time. Either way every instance
// lands in the wave the scoreboard gives it.

// planWindow is the most pass instances lowered, analysed and scheduled at a
// time, on both paths alike, so the waves hooks see do not depend on the
// path. The scoreboard's lowering cost grows with the square of the window,
// that of ranges with the body. BenchmarkLowerLoop measures both (CHANGES.md).
const planWindow = 1024

// planNode is one schedulable unit, a range: its segment's template for one
// pass at n consecutive iterations from it (linear index iter), in wave
// wave; on the scoreboard n is 1. Its instances sit at window positions ord,
// ord+len(body), and so on, in program order.
type planNode struct {
	tmpl *nodeTemplate
	it   IterVec
	iter int64
	n    int32
	ord  int32
	// barrier marks a node whose spans could not be resolved: it conflicts
	// with everything.
	barrier bool
	// spanLo:spanHi is the node's directional byte spans in plan.spans, and
	// depLo:depHi in plan.deps the nodes that must complete first (always
	// earlier in program order, so the DAG is acyclic by construction).
	spanLo, spanHi int32
	depLo, depHi   int32
	wave           int32
}

// plan is one lowered window. Its storage is reset and refilled by every
// lowering.next, so a launch of any length holds one window's worth. A run
// only reads it: the one window of a short program is lowered at Compile and
// shared by every run.
type plan struct {
	nodes []planNode
	// spans and deps are the slabs the nodes index into.
	spans []span.Dir
	deps  []int32
	sb    scoreboard
	// waves groups node indices by wave number (slices of order); every
	// node's deps live in strictly earlier waves.
	waves [][]int32
	order []int32
	// size counts the pass instances and edges the edges. Program order in a
	// window of ranges runs round body from pass first.
	size, edges int
	body        []nodeTemplate
	first       int
}

// width counts the wave's pass instances.
func (p *plan) width(wave []int32) (n int) {
	for _, k := range wave {
		n += int(p.nodes[k].n)
	}
	return n
}

// maxWidth is the widest wave.
func (p *plan) maxWidth() int {
	most := 0
	for _, wave := range p.waves {
		most = max(most, p.width(wave))
	}
	return most
}

// iterAt is the iteration of the j-th instance of node k.
func (p *plan) iterAt(k int32, j int) IterVec {
	if j == 0 {
		return p.nodes[k].it
	}
	return iterVecAt(p.nodes[k].tmpl.counts, p.nodes[k].iter+int64(j))
}

// inOrder calls f on the wave's instances in program order until f returns
// false: every node's first, then every node's second, and so on.
func (p *plan) inOrder(wave []int32, f func(k int32, j int) bool) bool {
	for j, more := 0, true; more; j++ {
		more = false
		for _, k := range wave {
			if n := int(p.nodes[k].n); j < n {
				if more = more || j+1 < n; !f(k, j) {
					return false
				}
			}
		}
	}
	return true
}

func (p *plan) spansOf(k int32) []span.Dir { return p.spans[p.nodes[k].spanLo:p.nodes[k].spanHi] }
func (p *plan) depsOf(k int32) []int32     { return p.deps[p.nodes[k].depLo:p.nodes[k].depHi] }

// planMode selects how LOOP nests lower.
type planMode int

const (
	// planExpand lowers every pass at every iteration (functional
	// execution: every iteration really runs).
	planExpand planMode = iota
	// planCollapse keeps one node per loop-body pass, scaled by the trip
	// count (analytic execution: every iteration has identical cost).
	planCollapse
)

// lowering is a descriptor decoded into scope segments and fused, once,
// with a cursor over its program-order sequence of pass instances. A fused
// pass is one pass — its comps chain through tile-local memory, priced as one
// pass — so the interleaving DRAM write/read passes between producer and
// consumer disappear from the schedule itself, not just the cost model.
type lowering struct {
	segs []planSegment
	mode planMode
	// fixed is the schedule-independent time: pass-configuration latency
	// (accelerators in a LOOP body are configured once, paper §2.2) and
	// the dispatch charges of empty loop bodies.
	fixed units.Seconds
	// fused records the fusion groups applied (nil when fusion is off or
	// nothing fused), fusionSpills the fusible pairs left unfused because
	// the handoff would overflow the tile-local memories, and scratchBytes
	// the peak per-iteration tile-local scratch any fused pass holds.
	fused        []FusedGroup
	fusionSpills int
	scratchBytes units.Bytes
	// window is planWindow, but for the tests that cut small windows.
	window int
	// The cursor: the next instance is pass `pass` at iteration `iter` of
	// segs[seg], or seg == len(segs) when none is left.
	seg, pass int
	iter      int64
}

// lower checks that the descriptor fits the instruction memory, decodes and
// fuses it (unless Config.NoFusion) into lw and builds the templates of its
// passes.
func (l *Layer) lower(d *descriptor.Descriptor, mode planMode, lw *lowering) error {
	if err := l.cfg.CU.CheckCapacity(d); err != nil {
		return err
	}
	segs, err := segmentsOf(d)
	if err != nil {
		return err
	}
	*lw = lowering{segs: segs, mode: mode, window: planWindow}
	if !l.cfg.NoFusion {
		res := fuseSegments(segs, l.cfg.LMBytes*units.Bytes(l.cfg.Tiles))
		lw.fused = res.groups
		lw.fusionSpills = res.spills
		lw.scratchBytes = res.scratch
	}
	for _, seg := range segs {
		if !seg.loop {
			// Summed pass by pass, not multiplied: the floating-point total
			// is part of every report.
			for range seg.passes {
				lw.fixed += l.cfg.PassConfigLatency
			}
			continue
		}
		lw.fixed += l.cfg.PassConfigLatency * units.Seconds(len(seg.passes))
		if len(seg.passes) == 0 {
			// An empty loop body still pays the per-iteration dispatch.
			lw.fixed += l.iterDispatch() * units.Seconds(seg.counts.Total())
		}
	}
	for si := range segs {
		l.buildTemplates(&segs[si], mode)
	}
	lw.settle()
	return nil
}

// trips is how many times the cursor visits the segment's passes: every
// iteration of an expanded LOOP, once otherwise.
func (lw *lowering) trips(seg *planSegment) int64 {
	if seg.loop && lw.mode == planExpand {
		return seg.counts.Total()
	}
	return 1
}

// settle moves the cursor past exhausted iterations and segments, so that
// it names a pass instance or the end.
func (lw *lowering) settle() {
	for lw.seg < len(lw.segs) {
		seg := &lw.segs[lw.seg]
		if lw.pass < len(seg.passes) {
			return
		}
		lw.pass = 0
		lw.iter++
		if len(seg.passes) == 0 || lw.iter >= lw.trips(seg) {
			lw.seg++
			lw.iter = 0
		}
	}
}

// price sums a run's report: the fixed time, every pass instance's template
// in program order (segment, iteration, pass; each accelerator's stats in
// op-table order), then the fetch and decode. It fails, as every run would,
// with the first instance whose template did not bind or price.
func (lw *lowering) price(fetchDecode units.Seconds) (*Report, error) {
	rep := &Report{Time: lw.fixed, PerOp: map[descriptor.OpCode]*OpStats{}}
	// agg caches each accelerator's entry of PerOp: no map lookup per op.
	var agg [len(specs)]*OpStats
	for si := range lw.segs {
		seg := &lw.segs[si]
		for n := lw.trips(seg); n > 0 && len(seg.tmpl) > 0; n-- {
			for pi := range seg.tmpl {
				t := &seg.tmpl[pi]
				if t.err != nil {
					return nil, t.err
				}
				rep.Time += t.time
				rep.Energy += t.energy
				rep.Comps += t.ncomps
				rep.NoCBytes += t.noc
				rep.LMSpillBytes += t.spill
				rep.RemoteBytes += t.remote
				rep.ElidedBytes += t.elided
				for i := range t.ops {
					o := &t.ops[i]
					if agg[o.op] == nil {
						agg[o.op] = rep.opStats(o.op)
					}
					agg[o.op].add(&o.OpStats)
				}
			}
		}
	}
	rep.FetchDecodeTime = fetchDecode
	rep.Time += fetchDecode
	return rep, nil
}

// more reports whether any pass instance is left to lower.
func (lw *lowering) more() bool { return lw.seg < len(lw.segs) }

// next lowers the next window into p: as ranges if it lies wholly inside one
// conflict-free nest (it is full or ends with the nest), else on the
// dependence scoreboard.
func (lw *lowering) next(p *plan) {
	if lw.more() && lw.segs[lw.seg].nest != nil && lw.segs[lw.seg].nest.rule == ruleNone {
		seg, cur := &lw.segs[lw.seg], *lw
		body := int64(len(seg.passes))
		at := lw.iter*body + int64(lw.pass)
		size := min(int64(lw.window), seg.counts.Total()*body-at)
		lw.iter, lw.pass = (at+size-1)/body, int((at+size-1)%body)+1
		if lw.settle(); size == int64(lw.window) || !lw.more() {
			p.lowerRanges(seg, at, size)
			return
		}
		*lw = cur
	}
	p.nodes, p.spans, p.body = p.nodes[:0], p.spans[:0], nil
	for lw.more() && len(p.nodes) < lw.window {
		seg := &lw.segs[lw.seg]
		p.addNode(planNode{tmpl: &seg.tmpl[lw.pass], iter: lw.iter, n: 1, ord: int32(len(p.nodes))})
		lw.pass++
		lw.settle()
	}
	p.size = len(p.nodes)
	p.buildEdges()
	p.edges = len(p.deps)
	p.buildWaves()
}

// lowerRanges lowers size instances from instance at of the conflict-free
// nest in seg to a range per body pass and wave. No two iterations conflict,
// so an instance's wave is its pass's depth in one iteration — but in a first
// iteration the window starts inside: its edges to passes before the window
// are dropped, as on the scoreboard, so its passes get ranges of their own.
func (p *plan) lowerRanges(seg *planSegment, at, size int64) {
	n, body := seg.nest, int64(len(seg.tmpl))
	p.nodes, p.spans, p.deps, p.edges = p.nodes[:0], p.spans[:0], p.deps[:0], 0
	p.size, p.body, p.first = int(size), seg.tmpl, int(at%body)
	for pass := p.first; p.first > 0 && pass < int(body) && int64(pass-p.first) < size; pass++ {
		w := int32(0)
		for _, dep := range n.deps[pass] {
			if dep >= int32(p.first) {
				w, p.edges = max(w, p.nodes[int(dep)-p.first].wave+1), p.edges+1
			}
		}
		p.nodes = append(p.nodes, planNode{tmpl: &seg.tmpl[pass], it: iterVecAt(seg.counts, at/body), iter: at / body,
			n: 1, ord: int32(pass - p.first), wave: w})
	}
	// The whole iterations, the last perhaps cut short.
	for iter, pass := (at+body-1)/body, int64(0); pass < body && iter*body+pass < at+size; pass++ {
		count := (at + size - iter*body - pass + body - 1) / body
		if n.deps != nil {
			p.edges += int(count) * len(n.deps[pass])
		}
		p.nodes = append(p.nodes, planNode{tmpl: &seg.tmpl[pass], it: iterVecAt(seg.counts, iter), iter: iter,
			n: int32(count), ord: int32(iter*body + pass - at), wave: n.depth[pass]})
	}
	p.buildWaves()
}

// iterVecAt decomposes a linear iteration index into the loop-nest vector,
// innermost level varying fastest.
func iterVecAt(counts descriptor.LoopCounts, idx int64) IterVec {
	var it IterVec
	for level := descriptor.MaxLoopLevels - 1; level >= 0; level-- {
		n := int64(counts[level])
		if n < 1 {
			n = 1
		}
		it[level] = idx % n
		idx /= n
	}
	return it
}

// addNode appends a node of one instance, shifting its template's spans to
// its iteration into the slab. Any span that fails to resolve (undecodable
// comp, address wrap at this iteration) turns the node into a barrier.
// Resolvable but span-free passes (every operand empty, e.g. N=0) touch no
// memory and conflict with nothing.
func (p *plan) addNode(nd planNode) {
	lo := len(p.spans)
	p.spans = slices.Grow(p.spans, len(nd.tmpl.spans))
	nd.barrier, nd.it = nd.tmpl.barrier, iterVecAt(nd.tmpl.counts, nd.iter)
	for i := range nd.tmpl.spans {
		sp, ok := nd.tmpl.spans[i].At(nd.it)
		if !ok {
			nd.barrier = true
			p.spans = p.spans[:lo]
			break
		}
		p.spans = append(p.spans, sp)
	}
	nd.spanLo, nd.spanHi = int32(lo), int32(len(p.spans))
	p.nodes = append(p.nodes, nd)
}

// scoreIvl is one interval of the dependence scoreboard: the byte range
// [start, end) with the last node that wrote it and the nodes that read it
// since that write.
type scoreIvl struct {
	start, end uint64
	writer     int32 // -1: never written
	readers    int32 // newest entry of the reader list in scoreboard.links; -1: none
}

// readerLink is one entry of an interval's reader list. Lists only grow at
// the head, so the two halves of a split interval share their tail.
type readerLink struct{ node, next int32 }

// scoreboard sweeps nodes in program order and derives dependence edges.
// It keeps a sorted, disjoint interval list; intervals split at span
// boundaries, so the edge set is exact (no false dependences from
// coarsening) while staying linear in the number of distinct boundaries.
type scoreboard struct {
	ivls  []scoreIvl
	links []readerLink
	stamp []int32 // dedup: stamp[dep] == node+1 when already recorded
}

// insert places iv at index at, shifting the tail up.
func (sb *scoreboard) insert(at int, iv scoreIvl) {
	sb.ivls = append(sb.ivls, scoreIvl{})
	copy(sb.ivls[at+1:], sb.ivls[at:])
	sb.ivls[at] = iv
}

// ensure splits/creates intervals so [start, end) is covered exactly by
// ivls[i:j] and returns that range.
func (sb *scoreboard) ensure(start, end uint64) (int, int) {
	// Find the first interval ending after start.
	lo, hi := 0, len(sb.ivls)
	for lo < hi {
		mid := (lo + hi) / 2
		if sb.ivls[mid].end <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo
	// Split a straddling head.
	if i < len(sb.ivls) && sb.ivls[i].start < start {
		left := sb.ivls[i]
		left.end = start
		sb.ivls[i].start = start
		sb.insert(i, left)
		i++
	}
	// Walk forward, filling gaps and splitting the tail.
	j := i
	at := start
	for at < end {
		if j == len(sb.ivls) || sb.ivls[j].start > at {
			// A gap, up to the next interval or the end of the request.
			gapEnd := end
			if j < len(sb.ivls) && sb.ivls[j].start < gapEnd {
				gapEnd = sb.ivls[j].start
			}
			sb.insert(j, scoreIvl{start: at, end: gapEnd, writer: -1, readers: -1})
		} else if sb.ivls[j].end > end {
			// Split the tail.
			right := sb.ivls[j]
			right.start = end
			sb.ivls[j].end = end
			sb.insert(j+1, right)
		}
		at = sb.ivls[j].end
		j++
	}
	return i, j
}

// addDep records dep -> node (dedup via stamps, no self-edges).
func (sb *scoreboard) addDep(p *plan, node int32, dep int32) {
	if dep == node || dep < 0 || sb.stamp[dep] == node+1 {
		return
	}
	sb.stamp[dep] = node + 1
	p.deps = append(p.deps, dep)
}

// addDeps makes node depend on the interval's writer and, when it writes,
// on every reader since that write.
func (sb *scoreboard) addDeps(p *plan, node int32, ivl *scoreIvl, write bool) {
	sb.addDep(p, node, ivl.writer)
	if !write {
		return
	}
	for r := ivl.readers; r >= 0; r = sb.links[r].next {
		sb.addDep(p, node, sb.links[r].node)
	}
}

// barrier makes node depend on every node still visible in the scoreboard
// and collapses the board to a single all-covering interval owned by node.
func (sb *scoreboard) barrier(p *plan, node int32) {
	for k := range sb.ivls {
		sb.addDeps(p, node, &sb.ivls[k], true)
	}
	sb.ivls = append(sb.ivls[:0], scoreIvl{start: 0, end: ^uint64(0), writer: node, readers: -1})
}

// buildEdges derives RAW/WAR/WAW edges by sweeping the nodes in program
// order. Every conflicting pair ends up ordered (directly or transitively),
// so any schedule respecting the edges reads and writes memory exactly as
// the serial program order would.
func (p *plan) buildEdges() {
	p.deps = p.deps[:0]
	if len(p.nodes) == 1 {
		// One node has nothing to be ordered against (most launches are one
		// top-level pass): no scoreboard to build.
		p.nodes[0].depLo, p.nodes[0].depHi = 0, 0
		return
	}
	sb := &p.sb
	// Sized so that a small plan, whose spans seldom split one another,
	// does not regrow them.
	sb.ivls = slices.Grow(sb.ivls[:0], len(p.spans))
	sb.links = slices.Grow(sb.links[:0], len(p.spans))
	sb.stamp = append(sb.stamp[:0], make([]int32, len(p.nodes))...)
	for k := range p.nodes {
		node := int32(k)
		nd := &p.nodes[k]
		nd.depLo = int32(len(p.deps))
		if nd.barrier {
			sb.barrier(p, node)
		}
		for _, sp := range p.spansOf(node) {
			i, j := sb.ensure(uint64(sp.Addr), uint64(sp.End()))
			for v := i; v < j; v++ {
				ivl := &sb.ivls[v]
				sb.addDeps(p, node, ivl, sp.Write)
				if sp.Write {
					ivl.writer, ivl.readers = node, -1
				} else if ivl.writer != node && (ivl.readers < 0 || sb.links[ivl.readers].node != node) {
					sb.links = append(sb.links, readerLink{node: node, next: ivl.readers})
					ivl.readers = int32(len(sb.links) - 1)
				}
			}
		}
		nd.depHi = int32(len(p.deps))
	}
}

// buildWaves puts each node in the earliest wave after all its deps and the
// one it has (a range's), and groups the nodes by wave (a counting sort into
// order, so node order is kept within a wave).
func (p *plan) buildWaves() {
	p.waves = p.waves[:0]
	// Nodes per wave, then each wave's fill position; the edge builder is
	// done with its stamps, which are as many as the nodes.
	fill := p.sb.stamp[:0]
	for k := range p.nodes {
		nd := &p.nodes[k]
		for _, dep := range p.depsOf(int32(k)) {
			nd.wave = max(nd.wave, p.nodes[dep].wave+1)
		}
		for int(nd.wave) >= len(fill) {
			fill = append(fill, 0)
		}
		fill[nd.wave]++
	}
	p.order = append(p.order[:0], make([]int32, len(p.nodes))...)
	at := int32(0)
	for w, n := range fill {
		p.waves = append(p.waves, p.order[at:at+n])
		fill[w] = at
		at += n
	}
	for k := range p.nodes {
		w := p.nodes[k].wave
		p.order[fill[w]] = int32(k)
		fill[w]++
	}
	p.sb.stamp = fill
}

// PlanInfo summarises the scheduled shape of a descriptor: how many pass
// instances the plan IR lowered it to, how they spread over topological
// waves, and how wide the widest wave is (the available parallelism). Nodes,
// Edges and Waves are summed over the descriptor's windows.
type PlanInfo struct {
	// Nodes is the number of pass instances.
	Nodes int
	// Edges is the number of dependence edges.
	Edges int
	// Waves is the schedule depth (the critical path in passes).
	Waves int
	// MaxWidth is the widest wave — how many pass instances can run
	// concurrently at the widest point.
	MaxWidth int
	// SerialChain is always false: dependence analysis is never abandoned,
	// because a window bounds what it looks at. The field stays for the
	// callers that read it.
	SerialChain bool
	// BlockedLoops lists the LOOPs of more than one iteration whose
	// iterations could not be proven conflict-free from the body's strides,
	// and whose order the dependence scoreboard therefore works out instance
	// by instance (often a serial chain). A LOOP not listed runs as ranges.
	BlockedLoops []BlockedLoop
	// Fused lists the fusion groups the lowering applied: runs of adjacent
	// producer→consumer passes merged into single chained passes whose
	// intermediates stay in tile-local scratch.
	Fused []FusedGroup
	// FusionSpills counts fusible pairs left unfused because their handoff
	// would overflow tile-local capacity (spilled to DRAM instead).
	FusionSpills int
	// ScratchBytes is the peak per-iteration tile-local scratch residency
	// of any fused pass.
	ScratchBytes units.Bytes
}

// BlockedLoop is the verdict on one LOOP left on the scoreboard.
type BlockedLoop struct {
	// FirstPass is the program-order index of the LOOP's first body pass (as
	// in FusedGroup), and Iters its flattened trip count.
	FirstPass int
	Iters     int64
	// Why names the operand pair or the rule that blocked the proof.
	Why string
}

// ExplainPlan compiles a descriptor as a run would, walks its windows and
// reports its scheduled shape without executing it (scheduler introspection;
// also useful for sizing Workers). The verdicts come from the same templates
// a run uses.
func (l *Layer) ExplainPlan(d *descriptor.Descriptor) (PlanInfo, error) {
	if err := d.Validate(); err != nil {
		return PlanInfo{}, err
	}
	prog, err := l.compile(d, planWindow)
	if err != nil {
		return PlanInfo{}, err
	}
	r := planRun{prog: prog, lw: prog.lw}
	lw := &r.lw
	info := PlanInfo{Fused: lw.fused, FusionSpills: lw.fusionSpills, ScratchBytes: lw.scratchBytes}
	for si := range lw.segs {
		if seg := &lw.segs[si]; seg.nest != nil && seg.nest.rule != ruleNone {
			info.BlockedLoops = append(info.BlockedLoops, BlockedLoop{seg.firstPass, seg.counts.Total(), seg.nest.why()})
		}
	}
	for {
		r.nextWindow()
		p := r.win
		info.Nodes += p.size
		info.Edges += p.edges
		info.Waves += len(p.waves)
		info.MaxWidth = max(info.MaxWidth, p.maxWidth())
		if !lw.more() {
			return info, nil
		}
	}
}
