package accel

import (
	"mealib/internal/descriptor"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Execution-plan IR: a decoded descriptor is lowered into a DAG of op
// nodes before anything runs. One node is one pass instance — a PASS
// datapath at one loop iteration (chaining couples the comps of a pass, so
// a pass is the smallest unit the hardware schedules as a whole). Edges are
// read-after-write, write-after-read and write-after-write span
// intersections, derived from the same affine base + Σ stride·index
// arithmetic the decode unit performs (Args.appendIO). The functional and the
// analytic interpreters both lower to this IR and execute it with the one
// wavefront scheduler in sched.go; the analytic path collapses each LOOP
// to a representative iteration carrying a scale factor, so paper-scale
// trip counts stay O(1) to evaluate.

// planMaxNodes bounds the functional expansion: beyond it the interpreter
// falls back to the streaming loop executor instead of materialising the
// DAG (a million-iteration LOOP would cost hundreds of megabytes of nodes
// for no scheduling insight the streaming path lacks).
const planMaxNodes = 1 << 16

// planMaxEvents bounds the spans the edge builder materialises; past it
// the plan degrades to a serial chain (every node depends on its
// predecessor), which is always correct.
const planMaxEvents = indepMaxEvents

// planNode is one schedulable unit: one pass instance.
type planNode struct {
	pass []passInstr
	it   IterVec
	// scale multiplies the node's sub-report (model-collapsed loops: the
	// node stands for scale identical iterations). 1 on the functional path.
	scale int64
	// dispatch charges the per-iteration decode-unit dispatch latency
	// (set on the last pass of each loop iteration).
	dispatch bool
	// spans are the node's directional byte spans; nil means they could
	// not be resolved and the node is a barrier (conflicts with everything).
	spans []span.Dir
	// deps are the nodes that must complete first (always earlier in
	// program order, so the DAG is acyclic by construction).
	deps []int32
	wave int32
}

// plan is the lowered descriptor.
type plan struct {
	nodes []planNode
	// spansPerComp sizes each node's span list up front (the op table's bound
	// on the directional spans of one invocation).
	spansPerComp int
	// fixed is the schedule-independent time: pass-configuration latency
	// (accelerators in a LOOP body are configured once, paper §2.2) and
	// the dispatch charges of empty loop bodies.
	fixed units.Seconds
	// waves groups node indices by wave number; every node's deps live in
	// strictly earlier waves.
	waves [][]int32
	// maxWidth is the widest wave.
	maxWidth int
	// edges counts dependence edges (introspection).
	edges int
	// chained reports that the edge builder gave up (span blow-up) and the
	// plan degraded to a serial chain.
	chained bool
	// fused records the fusion groups applied while lowering (nil when
	// fusion is off or nothing fused).
	fused []FusedGroup
	// fusionSpills counts fusible pairs left unfused because the handoff
	// would overflow the tile-local memories (spill-to-DRAM fallback).
	fusionSpills int
	// scratchBytes is the peak per-iteration tile-local scratch any fused
	// pass holds its intermediates in.
	scratchBytes units.Bytes
}

// planMode selects how LOOP nests lower.
type planMode int

const (
	// planExpand materialises one node per pass per iteration (functional
	// execution: every iteration really runs).
	planExpand planMode = iota
	// planCollapse keeps one node per loop-body pass, scaled by the trip
	// count (analytic execution: every iteration has identical cost).
	planCollapse
)

// planNodeCount pre-counts the nodes mode would materialise.
func planNodeCount(d *descriptor.Descriptor, mode planMode) int64 {
	var total int64
	bodyPasses := int64(0)
	inLoop := false
	var counts descriptor.LoopCounts
	for _, in := range d.Instrs {
		switch in.Kind {
		case descriptor.KindEndPass:
			if inLoop {
				bodyPasses++
			} else {
				total++
			}
		case descriptor.KindLoop:
			inLoop = true
			counts = in.Counts
			bodyPasses = 0
		case descriptor.KindEndLoop:
			if mode == planCollapse {
				total += bodyPasses
			} else {
				total += bodyPasses * counts.Total()
			}
			inLoop = false
		}
	}
	return total
}

// buildPlan lowers the descriptor. It returns nil (no error) when the
// expansion would exceed planMaxNodes and the caller should stream instead.
//
// Lowering first decodes the descriptor into scope segments, runs the
// fusion pass over them (unless Config.NoFusion), then emits nodes from the
// possibly-merged pass lists. A fused pass is one node — its comps chain
// through tile-local memory inside runPass — so the interleaving DRAM
// write/read passes between producer and consumer disappear from the
// schedule itself, not just the cost model.
func (l *Layer) buildPlan(d *descriptor.Descriptor, mode planMode) (*plan, error) {
	if planNodeCount(d, mode) > planMaxNodes {
		return nil, nil
	}
	segs, err := segmentsOf(d)
	if err != nil {
		return nil, err
	}
	p := &plan{spansPerComp: maxOpSpans()}
	if !l.cfg.NoFusion {
		res := fuseSegments(segs, l.cfg.LMBytes*units.Bytes(l.cfg.Tiles))
		p.fused = res.groups
		p.fusionSpills = res.spills
		p.scratchBytes = res.scratch
	}
	for _, seg := range segs {
		if !seg.loop {
			for _, pass := range seg.passes {
				p.fixed += l.cfg.PassConfigLatency
				p.addNode(pass, IterVec{}, 1, false)
			}
			continue
		}
		iters := seg.counts.Total()
		p.fixed += l.cfg.PassConfigLatency * units.Seconds(len(seg.passes))
		switch {
		case len(seg.passes) == 0:
			// An empty loop body still pays the per-iteration dispatch.
			p.fixed += l.iterDispatch() * units.Seconds(iters)
		case mode == planCollapse:
			for pi, body := range seg.passes {
				p.addNode(body, IterVec{}, iters, pi == len(seg.passes)-1)
			}
		default:
			for idx := int64(0); idx < iters; idx++ {
				it := iterVecAt(seg.counts, idx)
				for pi, body := range seg.passes {
					p.addNode(body, it, 1, pi == len(seg.passes)-1)
				}
			}
		}
	}
	p.buildEdges()
	p.buildWaves()
	return p, nil
}

// addNode appends a node, resolving its directional spans. Any span that
// fails to resolve (undecodable comp, address wrap) turns the node into a
// barrier (nil spans).
func (p *plan) addNode(pass []passInstr, it IterVec, scale int64, dispatch bool) {
	nd := planNode{pass: pass, it: it, scale: scale, dispatch: dispatch}
	// Resolvable but span-free passes (every operand empty, e.g. N=0) touch no
	// memory and conflict with nothing: they keep a non-nil empty slice so
	// they are not mistaken for a barrier.
	nd.spans = make([]span.Dir, 0, len(pass)*p.spansPerComp)
	for _, pi := range pass {
		a, err := Bind(pi.op, pi.params)
		ok := err == nil
		if ok {
			nd.spans, ok = a.appendIO(nd.spans, it)
		}
		if !ok {
			nd.spans = nil
			break
		}
	}
	p.nodes = append(p.nodes, nd)
}

// serialChain wires every node to its predecessor — the always-correct
// degenerate schedule.
func (p *plan) serialChain() {
	p.chained = true
	p.edges = 0
	for k := range p.nodes {
		if k == 0 {
			p.nodes[k].deps = nil
			continue
		}
		p.nodes[k].deps = []int32{int32(k - 1)}
		p.edges++
	}
}

// scoreIvl is one interval of the dependence scoreboard: the byte range
// [start, end) with the last node that wrote it and the nodes that read it
// since that write.
type scoreIvl struct {
	start, end uint64
	writer     int32 // -1: never written
	readers    []int32
}

// scoreboard sweeps nodes in program order and derives dependence edges.
// It keeps a sorted, disjoint interval list; intervals split at span
// boundaries, so the edge set is exact (no false dependences from
// coarsening) while staying linear in the number of distinct boundaries.
type scoreboard struct {
	ivls  []scoreIvl
	stamp []int32 // dedup: stamp[dep] == node+1 when already recorded
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
		head := sb.ivls[i]
		left := head
		left.end = start
		sb.ivls[i].start = start
		sb.ivls[i].readers = append([]int32(nil), head.readers...)
		sb.ivls = append(sb.ivls, scoreIvl{})
		copy(sb.ivls[i+1:], sb.ivls[i:])
		sb.ivls[i] = left
		i++
	}
	// Walk forward, filling gaps and splitting the tail.
	j := i
	at := start
	for at < end {
		if j == len(sb.ivls) || sb.ivls[j].start >= end {
			// Gap to the end of the request.
			gapEnd := end
			if j < len(sb.ivls) && sb.ivls[j].start < gapEnd {
				gapEnd = sb.ivls[j].start
			}
			sb.ivls = append(sb.ivls, scoreIvl{})
			copy(sb.ivls[j+1:], sb.ivls[j:])
			sb.ivls[j] = scoreIvl{start: at, end: gapEnd, writer: -1}
			at = gapEnd
			j++
			continue
		}
		if sb.ivls[j].start > at {
			// Gap before the next interval.
			sb.ivls = append(sb.ivls, scoreIvl{})
			copy(sb.ivls[j+1:], sb.ivls[j:])
			sb.ivls[j] = scoreIvl{start: at, end: sb.ivls[j+1].start, writer: -1}
			at = sb.ivls[j].end
			j++
			continue
		}
		if sb.ivls[j].end > end {
			// Split the tail.
			tail := sb.ivls[j]
			right := tail
			right.start = end
			right.readers = append([]int32(nil), tail.readers...)
			sb.ivls[j].end = end
			sb.ivls = append(sb.ivls, scoreIvl{})
			copy(sb.ivls[j+2:], sb.ivls[j+1:])
			sb.ivls[j+1] = right
		}
		at = sb.ivls[j].end
		j++
	}
	return i, j
}

// addDep records dep -> node (dedup via stamps, no self-edges).
func (sb *scoreboard) addDep(p *plan, node int32, dep int32) {
	if dep == node || dep < 0 {
		return
	}
	if sb.stamp[dep] == node+1 {
		return
	}
	sb.stamp[dep] = node + 1
	p.nodes[node].deps = append(p.nodes[node].deps, dep)
	p.edges++
}

// barrier makes node depend on every node still visible in the scoreboard
// and collapses the board to a single all-covering interval owned by node.
func (sb *scoreboard) barrier(p *plan, node int32) {
	for k := range sb.ivls {
		sb.addDep(p, node, sb.ivls[k].writer)
		for _, r := range sb.ivls[k].readers {
			sb.addDep(p, node, r)
		}
	}
	sb.ivls = sb.ivls[:0]
	sb.ivls = append(sb.ivls, scoreIvl{start: 0, end: ^uint64(0), writer: node})
}

// buildEdges derives RAW/WAR/WAW edges by sweeping the nodes in program
// order. Every conflicting pair ends up ordered (directly or transitively),
// so any schedule respecting the edges reads and writes memory exactly as
// the serial program order would.
func (p *plan) buildEdges() {
	events := 0
	for k := range p.nodes {
		if p.nodes[k].spans == nil {
			events++ // barriers are cheap but count them anyway
			continue
		}
		events += len(p.nodes[k].spans)
	}
	if events > planMaxEvents {
		p.serialChain()
		return
	}
	sb := &scoreboard{stamp: make([]int32, len(p.nodes))}
	for k := range p.nodes {
		node := int32(k)
		nd := &p.nodes[k]
		if nd.spans == nil {
			sb.barrier(p, node)
			continue
		}
		for _, sp := range nd.spans {
			i, j := sb.ensure(uint64(sp.Addr), uint64(sp.End()))
			for v := i; v < j; v++ {
				ivl := &sb.ivls[v]
				// A read depends on the last writer; a write additionally
				// depends on every reader since that write.
				sb.addDep(p, node, ivl.writer)
				if sp.Write {
					for _, r := range ivl.readers {
						sb.addDep(p, node, r)
					}
					ivl.writer = node
					ivl.readers = nil
				} else if ivl.writer != node {
					if n := len(ivl.readers); n == 0 || ivl.readers[n-1] != node {
						ivl.readers = append(ivl.readers, node)
					}
				}
			}
			if len(sb.ivls) > 2*planMaxEvents {
				p.serialChain()
				return
			}
		}
	}
}

// buildWaves assigns each node the earliest wave after all its deps and
// groups the nodes by wave.
func (p *plan) buildWaves() {
	maxWave := int32(-1)
	for k := range p.nodes {
		w := int32(0)
		for _, dep := range p.nodes[k].deps {
			if dw := p.nodes[dep].wave + 1; dw > w {
				w = dw
			}
		}
		p.nodes[k].wave = w
		if w > maxWave {
			maxWave = w
		}
	}
	if maxWave < 0 {
		return
	}
	p.waves = make([][]int32, maxWave+1)
	for k := range p.nodes {
		w := p.nodes[k].wave
		p.waves[w] = append(p.waves[w], int32(k))
	}
	for _, wave := range p.waves {
		if len(wave) > p.maxWidth {
			p.maxWidth = len(wave)
		}
	}
}

// PlanInfo summarises the scheduled shape of a descriptor: how many nodes
// the plan IR lowered it to, how they spread over topological waves, and
// how wide the widest wave is (the available parallelism).
type PlanInfo struct {
	// Nodes is the number of pass instances in the DAG.
	Nodes int
	// Edges is the number of dependence edges.
	Edges int
	// Waves is the schedule depth (the critical path in passes).
	Waves int
	// MaxWidth is the widest wave — how many pass instances can run
	// concurrently at the widest point.
	MaxWidth int
	// SerialChain reports that dependence analysis was abandoned and the
	// plan degraded to one-node-per-wave serial execution.
	SerialChain bool
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

// ExplainPlan lowers a descriptor through the functional expansion and
// reports its scheduled shape without executing it (scheduler
// introspection; also useful for sizing Workers).
func (l *Layer) ExplainPlan(d *descriptor.Descriptor) (PlanInfo, error) {
	if err := d.Validate(); err != nil {
		return PlanInfo{}, err
	}
	p, err := l.buildPlan(d, planExpand)
	if err != nil {
		return PlanInfo{}, err
	}
	if p == nil {
		// Oversized expansion: the streaming executor takes over; report
		// the degenerate shape.
		return PlanInfo{Nodes: int(planNodeCount(d, planExpand)), SerialChain: true}, nil
	}
	return PlanInfo{
		Nodes:        len(p.nodes),
		Edges:        p.edges,
		Waves:        len(p.waves),
		MaxWidth:     p.maxWidth,
		SerialChain:  p.chained,
		Fused:        p.fused,
		FusionSpills: p.fusionSpills,
		ScratchBytes: p.scratchBytes,
	}, nil
}
