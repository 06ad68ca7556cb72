package main

import (
	"fmt"
	"time"

	"mealib/internal/accel"
	"mealib/internal/apps/graph"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/multistack"
	"mealib/internal/noc"
	"mealib/internal/platform"
	"mealib/internal/sparse"
	"mealib/internal/units"
)

// graphLoad is the multi-stack workload: PageRank (8 iterations) then BFS
// (up to 64 rounds) over a seeded random geometric graph, each trial on a
// fresh 4-stack system, sharding included. One op is one iteration: four
// concurrent SPMV flights, one per stack, then the whole-segment device
// copies of the exchange and the interconnect model.
type graphLoad struct {
	sc  scale
	adj *sparse.CSR
	// source is the BFS root: the lowest-numbered vertex from which BFS is
	// still relaxing after graphBFSIters rounds (at 2^16 vertices every
	// vertex of the giant component is one) or reaches most of the graph.
	// Vertex 0 sits in a corner of the unit square and on some seeds in a
	// component of two or three vertices, where BFS stops at once and an op
	// would be all sharding.
	source int
	// wantPR and wantBFS are the serial references the host replay produced
	// last; gotPR and gotBFS the engine's results of the last trial.
	wantPR, wantBFS, gotPR, gotBFS []float32
}

const (
	graphStacks   = 4
	graphDegree   = 13
	graphAlpha    = float32(0.85)
	graphPRIters  = 8
	graphBFSIters = 64
	graphData     = 256 * units.MiB
)

func (w *graphLoad) nodes() int {
	if w.sc.tiny {
		return 1 << 12
	}
	return 1 << 16
}

func newGraphSystem(stacks int) (*multistack.System, error) {
	rc := mealibrt.DefaultConfig()
	rc.Driver.DataSize = graphData
	return multistack.New(multistack.Config{Stacks: stacks, Runtime: rc})
}

func (w *graphLoad) setup(seed int64) error {
	var err error
	if w.adj, err = platform.RGGGraph(w.nodes(), graphDegree, seed); err != nil {
		return err
	}
	for w.source = 0; ; w.source++ {
		if w.source == w.adj.Rows {
			return fmt.Errorf("graph: no vertex with a component worth searching")
		}
		if reached, levels := explore(w.adj, w.source, graphBFSIters); levels >= graphBFSIters || reached > w.adj.Rows/2 {
			break
		}
	}
	// The host reference, once, before the first trial.
	return w.host()
}

// explore walks the graph breadth-first from src for at most maxLevels levels
// and returns how many vertices it reached and how many levels it found.
func explore(adj *sparse.CSR, src, maxLevels int) (reached, levels int) {
	seen := make([]bool, adj.Rows)
	seen[src] = true
	frontier := []int32{int32(src)}
	for reached = 1; len(frontier) > 0 && levels < maxLevels; levels++ {
		var next []int32
		for _, v := range frontier {
			for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
				if u := adj.ColIdx[k]; !seen[u] {
					seen[u] = true
					next = append(next, u)
				}
			}
		}
		reached += len(next)
		frontier = next
	}
	return reached, levels
}

func (w *graphLoad) trial(rec *recorder, t *trialResult) error {
	t.callers = 1
	root := rec.begin("op", 0, 0)
	start := time.Now()
	sys, err := newGraphSystem(graphStacks)
	if err != nil {
		return err
	}
	mark := time.Now()
	id := rec.begin("graph.pagerank", root, 0)
	pr, err := graph.PageRank(ctx, sys, w.adj, graphAlpha, graphPRIters)
	rec.end(id)
	if err != nil {
		t.fail(err)
	}
	prWall := time.Since(mark)
	mark = time.Now()
	id = rec.begin("graph.bfs", root, 1)
	bfs, err := graph.BFS(ctx, sys, w.adj, w.source, graphBFSIters)
	rec.end(id)
	if err != nil {
		t.fail(err)
	}
	bfsWall := time.Since(mark)
	t.wall = time.Since(start)
	rec.end(root)
	w.gotPR, w.gotBFS = pr.X, bfs.X
	t.ops = pr.Iters + bfs.Iters
	if t.failed > 0 || t.ops == 0 {
		t.ops, t.failed = graphPRIters+graphBFSIters, graphPRIters+graphBFSIters
		return nil
	}
	// Iterations are inside the application calls; each call lends its
	// iterations its mean.
	for i := 0; i < pr.Iters; i++ {
		t.lat = append(t.lat, float64(prWall.Nanoseconds())/1e3/float64(pr.Iters))
	}
	for i := 0; i < bfs.Iters; i++ {
		t.lat = append(t.lat, float64(bfsWall.Nanoseconds())/1e3/float64(bfs.Iters))
	}
	if rec != nil {
		for _, st := range []multistack.RunStats{pr.Stats, bfs.Stats} {
			t.acc.time += st.Time
			t.acc.energy += st.Energy
		}
	}
	return nil
}

func (w *graphLoad) host() error {
	var err error
	if w.wantPR, err = graph.PageRankSerial(w.adj, graphAlpha, graphPRIters); err != nil {
		return err
	}
	w.wantBFS, _, err = graph.BFSSerial(w.adj, w.source, graphBFSIters)
	return err
}

func (w *graphLoad) verify() error {
	if err := sameF32("PageRank ranks", w.gotPR, w.wantPR); err != nil {
		return err
	}
	return sameF32("BFS distances", w.gotBFS, w.wantBFS)
}

func (w *graphLoad) close() error { return nil }

// stepped is the iteration loop of graph.PageRank and graph.BFS spelled out
// on the multistack engine's public functions, so the traced run can put a
// span around the sharding and around every Step. It returns the per-step
// model statistics.
func stepped(rec *recorder, sys *multistack.System, m *sparse.CSR, semiring int64, bias float32, x0 []float32, iters int, name string) (*multistack.Sharded, error) {
	root := rec.begin(name, 0, 0)
	defer rec.end(root)
	id := rec.begin("multistack.shard", root, 0)
	sh, err := sys.Shard(m)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if err := sh.BuildPlans(semiring, bias); err != nil {
		return nil, err
	}
	if err := sh.SetX(x0); err != nil {
		return nil, err
	}
	for it := 0; it < iters; it++ {
		id := rec.begin("multistack.step", root, it)
		_, err := sh.Step(ctx)
		rec.end(id)
		if err != nil {
			return nil, err
		}
	}
	return sh, nil
}

func (w *graphLoad) layers(rec *recorder, m metrics, t *trialResult, untracedUS float64) error {
	prOp, bias, err := graph.PageRankOperator(w.adj, graphAlpha)
	if err != nil {
		return err
	}
	bfsOp, err := graph.BFSOperator(w.adj)
	if err != nil {
		return err
	}
	n := w.adj.Rows
	rank0 := make([]float32, n)
	for i := range rank0 {
		rank0[i] = 1 / float32(n)
	}
	dist0 := make([]float32, n)
	for i := range dist0 {
		dist0[i] = graph.Unreached
	}
	dist0[w.source] = 0

	// The same two iterations, step by step, on 4 stacks and on 1.
	perIter := map[int]units.Seconds{}
	for _, stacks := range []int{graphStacks, 1} {
		sys, err := newGraphSystem(stacks)
		if err != nil {
			return err
		}
		r := rec
		if stacks == 1 {
			r = nil // the 1-stack run only supplies the model baseline
		}
		pr, err := stepped(r, sys, prOp, kernels.SemiringPlusTimes, bias, rank0, graphPRIters, "graph.pagerank.steps")
		if err != nil {
			return err
		}
		bfs, err := stepped(r, sys, bfsOp, kernels.SemiringMinPlus, graph.Unreached, dist0, graphBFSIters, "graph.bfs.steps")
		if err != nil {
			return err
		}
		steps := float64(graphPRIters + graphBFSIters)
		perIter[stacks] = (pr.Stats().Time + bfs.Stats().Time) / units.Seconds(steps)
		if stacks == 1 {
			continue
		}
		ps, bs := pr.Stats(), bfs.Stats()
		m["multistack.compute_model_us"] = float64(ps.ComputeTime+bs.ComputeTime) * 1e6 / steps
		m["multistack.exchange_model_us"] = float64(ps.ExchangeTime+bs.ExchangeTime) * 1e6 / steps
		m["multistack.exchange_bytes"] = float64(ps.ExchangeBytes+bs.ExchangeBytes) / steps
		m["noc.link_uj"] = float64(sys.Net().Energy()) * 1e6 / steps
		var busy units.Seconds
		for k := 0; k < stacks; k++ {
			busy += sys.Net().EgressBusy(k)
		}
		m["noc.egress_busy_model_us"] = float64(busy) * 1e6 / steps
		m["sparse.edge_cut"] = float64(sparse.EdgeCut(prOp, pr.Partition()))
	}
	m["graph.model_speedup_vs_1stack"] = float64(perIter[1] / perIter[graphStacks])
	self := rec.selfMicros()
	m["multistack.shard_us"] = self["multistack.shard"]
	m["multistack.step_us"] = self["multistack.step"]
	// The application calls of the traced trial, per iteration.
	for _, s := range rec.spans {
		switch s.Name {
		case "graph.pagerank":
			m["graph.pagerank_iter_us"] = float64(s.EndNS-s.StartNS) / 1e3 / graphPRIters
		case "graph.bfs":
			m["graph.bfs_iter_us"] = float64(s.EndNS-s.StartNS) / 1e3 / graphBFSIters
		}
	}

	var perr error
	if m["sparse.partition_us"], perr = usPer(3, func() error { _, err := sparse.RowBlocks(prOp, graphStacks); return err }); perr != nil {
		return perr
	}
	// The interconnect model on its own: the sends of one exchange, all pairs.
	net, err := noc.NewInterStack(*noc.MEALibInterStack(graphStacks))
	if err != nil {
		return err
	}
	const sends = 1000
	us, err := usPer(sends, func() error {
		for src := 0; src < graphStacks; src++ {
			for dst := 0; dst < graphStacks; dst++ {
				if src != dst {
					if _, _, err := net.Send(src, dst, 4096, 0); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["noc.send_ns"] = us * 1e3 / (graphStacks * (graphStacks - 1))

	// The layers under the engine, on one stack's share of the work: an SPMV
	// over the PageRank operator's first row block, with the descriptor the
	// shard plan would carry.
	return w.probeShard(rec, m, prOp, bias, rank0, untracedUS)
}

// probeShard builds the first of the four row blocks of op as its own SPMV
// on a one-stack runtime and drives it through the layer probes. An op is
// four such launches, so the probe weighs 4.
func (w *graphLoad) probeShard(rec *recorder, m metrics, op *sparse.CSR, bias float32, x0 []float32, untracedUS float64) error {
	part, err := sparse.RowBlocks(op, graphStacks)
	if err != nil {
		return err
	}
	lo, hi := part.Range(0)
	rowPtr := make([]int32, hi-lo+1)
	for i := lo; i <= hi; i++ {
		rowPtr[i-lo] = op.RowPtr[i] - op.RowPtr[lo]
	}
	colIdx := op.ColIdx[op.RowPtr[lo]:op.RowPtr[hi]]
	values := op.Values[op.RowPtr[lo]:op.RowPtr[hi]]

	cfg := mealibrt.DefaultConfig()
	cfg.Driver.DataSize = graphData
	r, err := newRig(cfg, 1)
	if err != nil {
		return err
	}
	rp, err := r.i32(rowPtr)
	if err != nil {
		return err
	}
	ci, err := r.i32(colIdx)
	if err != nil {
		return err
	}
	// stored allocates a buffer holding v.
	stored := func(v []float32) (*f32buf, error) {
		b, err := r.f32(r.rt.MemAlloc, len(v), false)
		if err != nil {
			return nil, err
		}
		copy(b.host, v)
		return b, b.dev.StoreFloat32s(0, b.host)
	}
	var bufs []*f32buf
	for _, v := range [][]float32{values, x0, make([]float32, hi-lo), make([]float32, hi-lo)} {
		b, err := stored(v)
		if err != nil {
			return err
		}
		bufs = append(bufs, b)
	}
	vals, x, y, y2 := bufs[0], bufs[1], bufs[2], bufs[3]
	mk := func(y *f32buf) (*descriptor.Descriptor, error) {
		return onePass(descriptor.OpSPMV, accel.SpmvArgs{
			M: int64(hi - lo), Cols: int64(op.Cols), NNZ: int64(len(values)),
			RowPtr: rp.PA(), ColIdx: ci.PA(), Values: vals.dev.PA(), X: x.dev.PA(), Y: y.dev.PA(),
			Semiring: kernels.SemiringPlusTimes, Bias: bias,
		}.Params())
	}
	var plans []*mealibrt.Plan
	var first *descriptor.Descriptor
	for _, y := range []*f32buf{y, y2} {
		d, err := mk(y)
		if err != nil {
			return err
		}
		if first == nil {
			first = d
		}
		p, err := r.rt.AccPlanDescriptor(d)
		if err != nil {
			return err
		}
		plans = append(plans, p)
	}
	host := func() error {
		return kernels.SpmvCSRSemiring(hi-lo, rowPtr, colIdx, values, x.host, y.host, kernels.SemiringPlusTimes, bias)
	}
	reps := 20
	if w.sc.tiny {
		reps = 2
	}
	if err := r.probeLayers(rec, m, []probed{{name: "SPMV shard", desc: first, host: host, weight: graphStacks, reps: reps}}); err != nil {
		return err
	}
	if err := r.probeRuntime(rec, m, first, plans, []int{0}, reps, graphStacks); err != nil {
		return err
	}
	// The four flights of an op run side by side on two cores, so serial
	// shadow calls overstate them; the share can pass 1 and the remainder go
	// negative, which is the overlap.
	attribute(m, untracedUS, m["multistack.step_us"])
	return nil
}
