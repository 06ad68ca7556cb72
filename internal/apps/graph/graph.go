// Package graph runs graph analytics as iterated sparse matrix-vector
// products over semirings, the formulation the PIM-graph line of work
// (Tesseract, GraphP) uses to map vertex programs onto memory stacks:
// PageRank is x' = M·x + b over the (+, ×) semiring with M the
// alpha-scaled column-stochastic transition matrix, and BFS is
// dist' = min_u(B[v][u] + dist[u]) over the (min, +) semiring with B the
// reversed unit-weight adjacency plus a zero diagonal. Both run through
// the multistack engine — one SPMV launch per stack per iteration plus a
// modeled inter-stack exchange — and both are bit-identical to the serial
// references in this package for any stack count, because row-block
// sharding preserves each row's accumulation order exactly.
package graph

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"mealib/internal/kernels"
	"mealib/internal/multistack"
	"mealib/internal/sparse"
)

// Unreached is the BFS distance of a vertex the source never reaches.
var Unreached = float32(math.Inf(1))

// PageRankOperator folds the damping factor and out-degree normalisation
// into one matrix: M[v][u] = alpha / outdeg(u) for each edge u->v, so one
// PageRank iteration is a single plus-times SPMV with every row's
// accumulator seeded by the teleport bias (1-alpha)/n. Dangling vertices
// (outdeg 0) contribute nothing — their columns are zero — which is the
// standard mass-leaking simplification; rank sums then fall short of 1 by
// the dangling mass, they do not redistribute it.
func PageRankOperator(adj *sparse.CSR, alpha float32) (*sparse.CSR, float32, error) {
	if adj.Rows != adj.Cols {
		return nil, 0, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	if !(alpha > 0 && alpha < 1) {
		return nil, 0, fmt.Errorf("graph: damping factor %v outside (0,1)", alpha)
	}
	outdeg := adj.RowSums()
	scale := make([]float64, adj.Rows)
	for u, d := range outdeg {
		if d > 0 {
			scale[u] = float64(alpha) / d
		}
	}
	// The transpose is private, so it is scaled in place: the same product
	// ScaleColumns would store in a copy.
	m := adj.Transpose()
	for k, u := range m.ColIdx {
		m.Values[k] = float32(float64(m.Values[k]) * scale[u])
	}
	return m, (1 - alpha) / float32(adj.Rows), nil
}

// BFSOperator builds the min-plus relaxation matrix: B[v][u] = 1 for each
// edge u->v (hop counts ignore edge weights) and B[v][v] = 0 so a vertex
// keeps its own previous distance. One SPMV with bias +Inf is then one
// round of Bellman-Ford relaxation over unit weights — level-synchronous
// BFS. The transpose's rows are already sorted by column, so each row of B
// is that row with its self-loops dropped and the zero diagonal merged in
// at its place; an edge stored k times weighs k, as FromCOO would sum it.
func BFSOperator(adj *sparse.CSR) (*sparse.CSR, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("graph: adjacency must be square, got %dx%d", adj.Rows, adj.Cols)
	}
	t := adj.Transpose()
	b := &sparse.CSR{Rows: t.Rows, Cols: t.Cols, RowPtr: make([]int32, t.Rows+1),
		ColIdx: make([]int32, 0, t.NNZ()+t.Rows), Values: make([]float32, 0, t.NNZ()+t.Rows)}
	edges := func(cols []int32) {
		for k, u := range cols {
			if k > 0 && cols[k-1] == u {
				b.Values[len(b.Values)-1]++
				continue
			}
			b.ColIdx = append(b.ColIdx, u)
			b.Values = append(b.Values, 1)
		}
	}
	for v := range int32(t.Rows) {
		row := t.ColIdx[t.RowPtr[v]:t.RowPtr[v+1]]
		below, _ := slices.BinarySearch(row, v)
		above, _ := slices.BinarySearch(row, v+1)
		edges(row[:below])
		b.ColIdx = append(b.ColIdx, v)
		b.Values = append(b.Values, 0)
		edges(row[above:])
		b.RowPtr[v+1] = int32(len(b.ColIdx))
	}
	return b, nil
}

// Result is one analytic run: the final vertex vector, the iterations
// executed, and the engine's model-cost accounting.
type Result struct {
	X     []float32
	Iters int
	Stats multistack.RunStats
}

// PageRank runs a fixed number of power iterations across the system's
// stacks and returns the rank vector.
func PageRank(ctx context.Context, sys *multistack.System, adj *sparse.CSR, alpha float32, iters int) (Result, error) {
	if iters < 1 {
		return Result{}, fmt.Errorf("graph: pagerank needs at least one iteration, got %d", iters)
	}
	m, bias, err := PageRankOperator(adj, alpha)
	if err != nil {
		return Result{}, err
	}
	sh, err := sys.Shard(m)
	if err != nil {
		return Result{}, err
	}
	if err := sh.BuildPlans(kernels.SemiringPlusTimes, bias); err != nil {
		return Result{}, err
	}
	x := make([]float32, m.Rows)
	for i := range x {
		x[i] = 1 / float32(m.Rows)
	}
	if err := sh.SetX(x); err != nil {
		return Result{}, err
	}
	for it := 0; it < iters; it++ {
		if _, err := sh.Step(ctx); err != nil {
			return Result{}, err
		}
	}
	out, err := sh.X()
	if err != nil {
		return Result{}, err
	}
	return Result{X: out, Iters: iters, Stats: sh.Stats()}, nil
}

// BFS runs level-synchronous BFS from source across the system's stacks:
// min-plus relaxations until the distance vector reaches a fixed point
// (checked bit-exactly) or maxIters rounds have run. Unreached vertices
// keep distance +Inf.
func BFS(ctx context.Context, sys *multistack.System, adj *sparse.CSR, source, maxIters int) (Result, error) {
	if source < 0 || source >= adj.Rows {
		return Result{}, fmt.Errorf("graph: source %d outside %d vertices", source, adj.Rows)
	}
	b, err := BFSOperator(adj)
	if err != nil {
		return Result{}, err
	}
	sh, err := sys.Shard(b)
	if err != nil {
		return Result{}, err
	}
	if err := sh.BuildPlans(kernels.SemiringMinPlus, Unreached); err != nil {
		return Result{}, err
	}
	dist := make([]float32, b.Rows)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0
	if err := sh.SetX(dist); err != nil {
		return Result{}, err
	}
	iters := 0
	for ; iters < maxIters; iters++ {
		if _, err := sh.Step(ctx); err != nil {
			return Result{}, err
		}
		next, err := sh.X()
		if err != nil {
			return Result{}, err
		}
		if bitsEqual(next, dist) {
			iters++
			dist = next
			break
		}
		dist = next
	}
	return Result{X: dist, Iters: iters, Stats: sh.Stats()}, nil
}

// PageRankSerial is the single-threaded host reference: the same operator
// matrix, the same per-row accumulation (float64, entry order, bias
// seeded), iterated with a full-vector handoff — exactly what the sharded
// engine computes, so results must match bit for bit.
func PageRankSerial(adj *sparse.CSR, alpha float32, iters int) ([]float32, error) {
	if iters < 1 {
		return nil, fmt.Errorf("graph: pagerank needs at least one iteration, got %d", iters)
	}
	m, bias, err := PageRankOperator(adj, alpha)
	if err != nil {
		return nil, err
	}
	x := make([]float32, m.Rows)
	for i := range x {
		x[i] = 1 / float32(m.Rows)
	}
	y := make([]float32, m.Rows)
	for it := 0; it < iters; it++ {
		for i := 0; i < m.Rows; i++ {
			sum := float64(bias)
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				sum += float64(m.Values[k]) * float64(x[m.ColIdx[k]])
			}
			y[i] = float32(sum)
		}
		x, y = y, x
	}
	return x, nil
}

// BFSSerial is the single-threaded host reference for BFS, with the same
// fixed-point criterion as the engine. It returns the distance vector and
// the rounds executed.
func BFSSerial(adj *sparse.CSR, source, maxIters int) ([]float32, int, error) {
	if source < 0 || source >= adj.Rows {
		return nil, 0, fmt.Errorf("graph: source %d outside %d vertices", source, adj.Rows)
	}
	b, err := BFSOperator(adj)
	if err != nil {
		return nil, 0, err
	}
	dist := make([]float32, b.Rows)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0
	next := make([]float32, b.Rows)
	iters := 0
	for ; iters < maxIters; iters++ {
		for v := 0; v < b.Rows; v++ {
			best := Unreached
			for k := b.RowPtr[v]; k < b.RowPtr[v+1]; k++ {
				if d := b.Values[k] + dist[b.ColIdx[k]]; d < best {
					best = d
				}
			}
			next[v] = best
		}
		if bitsEqual(next, dist) {
			iters++
			copy(dist, next)
			break
		}
		dist, next = next, dist
	}
	return dist, iters, nil
}

// bitsEqual compares two float32 vectors bit for bit (+Inf == +Inf, no
// tolerance — the fixed-point criterion must match the engine's exactly).
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// AdjacencyFromMatrixMarket reads a Matrix Market graph (e.g. the UF
// collection's rgg_n_2_20) as an unweighted adjacency matrix: the stored
// pattern with every weight forced to 1, as the semiring operators expect.
// Symmetric files arrive already expanded by the reader.
func AdjacencyFromMatrixMarket(r io.Reader) (*sparse.CSR, error) {
	m, err := sparse.ReadMatrixMarket(r)
	if err != nil {
		return nil, err
	}
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("graph: matrix market graph must be square, got %dx%d", m.Rows, m.Cols)
	}
	for i := range m.Values {
		m.Values[i] = 1
	}
	return m, nil
}
