package graph

import (
	"context"
	"math"
	"strings"
	"testing"

	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/multistack"
	"mealib/internal/sparse"
	"mealib/internal/units"
)

func testSystem(t *testing.T, stacks int, dataSize units.Bytes) *multistack.System {
	t.Helper()
	rc := mealibrt.DefaultConfig()
	rc.Driver.DataSize = dataSize
	sys, err := multistack.New(multistack.Config{Stacks: stacks, Runtime: rc})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func bitEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

// TestPageRankMatchesSerial shards PageRank over 1, 2 and 4 stacks and
// requires bit-identity with the serial host reference, plus the semantic
// sanity that ranks are positive and sum to at most 1 (dangling vertices
// leak mass, they never create it).
func TestPageRankMatchesSerial(t *testing.T) {
	adj, err := sparse.RGG(1<<12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	const alpha, iters = 0.85, 6
	want, err := PageRankSerial(adj, alpha, iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, stacks := range []int{1, 2, 4} {
		sys := testSystem(t, stacks, 64*units.MiB)
		res, err := PageRank(context.Background(), sys, adj, alpha, iters)
		if err != nil {
			t.Fatal(err)
		}
		bitEqual(t, res.X, want, "pagerank")
		if res.Iters != iters {
			t.Errorf("%d stacks: ran %d iterations, want %d", stacks, res.Iters, iters)
		}
		if stacks > 1 && res.Stats.ExchangeBytes == 0 {
			t.Errorf("%d stacks: no modeled exchange traffic", stacks)
		}
	}
	var sum float64
	for _, r := range want {
		if r <= 0 {
			t.Fatal("non-positive rank")
		}
		sum += float64(r)
	}
	if sum <= 0.5 || sum > 1+1e-3 {
		t.Errorf("rank mass %v outside (0.5, 1]", sum)
	}
}

// hostBFS is an independent integer level-synchronous BFS (queue, not
// matrix algebra) used to validate the min-plus formulation semantically.
func hostBFS(adj *sparse.CSR, source int) []float32 {
	dist := make([]float32, adj.Rows)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0
	queue := []int32{int32(source)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for k := adj.RowPtr[u]; k < adj.RowPtr[u+1]; k++ {
			v := adj.ColIdx[k]
			if math.IsInf(float64(dist[v]), 1) {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestBFSMatchesSerialAndQueue checks the sharded min-plus BFS against both
// the serial SpMV reference (bit-identity) and a plain queue BFS
// (semantic hop counts).
func TestBFSMatchesSerialAndQueue(t *testing.T) {
	adj, err := sparse.RGG(1<<12, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Geometric graphs have large diameters (~sqrt(n)); give the
	// level-synchronous sweep room to finish.
	const source, maxIters = 3, 256
	want, wantIters, err := BFSSerial(adj, source, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, 4, 64*units.MiB)
	res, err := BFS(context.Background(), sys, adj, source, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, res.X, want, "bfs")
	if res.Iters != wantIters {
		t.Errorf("engine converged in %d rounds, serial in %d", res.Iters, wantIters)
	}
	if res.Iters >= maxIters {
		t.Fatalf("BFS did not reach a fixed point within %d rounds", maxIters)
	}
	levels := hostBFS(adj, source)
	bitEqual(t, res.X, levels, "bfs vs queue")
	reached := 0
	for _, d := range res.X {
		if !math.IsInf(float64(d), 1) {
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("BFS reached only %d vertices", reached)
	}
}

// TestGraphGatePageRankSmoke is the CI gate (check.sh): 4-stack PageRank
// at n=2^16 must be bit-identical to the serial run, and the interconnect
// ledger must conserve traffic — every link carried exactly iters x the
// sharder's ghost volume, and total bytes sent equal total bytes received.
//
// Gate (check.sh): bit-identity.
func TestGraphGatePageRankSmoke(t *testing.T) {
	adj, err := sparse.RGG(1<<16, 8, 2020)
	if err != nil {
		t.Fatal(err)
	}
	const alpha, iters, stacks = 0.85, 4, 4
	m, bias, err := PageRankOperator(adj, alpha)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, stacks, 128*units.MiB)
	sh, err := sys.Shard(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.BuildPlans(kernels.SemiringPlusTimes, bias); err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.Rows)
	for i := range x {
		x[i] = 1 / float32(m.Rows)
	}
	if err := sh.SetX(x); err != nil {
		t.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		if _, err := sh.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sh.X()
	if err != nil {
		t.Fatal(err)
	}
	want, err := PageRankSerial(adj, alpha, iters)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, got, want, "gate pagerank")

	net := sys.Net()
	var sent, recvd units.Bytes
	for d := 0; d < stacks; d++ {
		for s := 0; s < stacks; s++ {
			if s == d {
				continue
			}
			if got, want := net.PairBytes(s, d), iters*sh.GhostBytes(d, s); got != want {
				t.Errorf("link %d->%d carried %d bytes, ghost model says %d", s, d, got, want)
			}
		}
		sent += net.BytesSent(d)
		recvd += net.BytesReceived(d)
	}
	if sent != recvd {
		t.Errorf("conservation violated: %d bytes sent, %d received", sent, recvd)
	}
	if sent == 0 {
		t.Error("gate graph produced no cross-stack traffic")
	}
}

// TestPaperScaleGraph runs both workloads at the paper's rgg_n_2_20 scale
// (n = 2^20) across 4 stacks and requires bit-identity with the serial
// references. Iteration counts are small — the point is scale, not
// convergence.
func TestPaperScaleGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("n=2^20 graph build takes a while; run without -short")
	}
	adj, err := sparse.RGG(1<<20, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	sys := testSystem(t, 4, 256*units.MiB)
	ctx := context.Background()

	const alpha, prIters = 0.85, 2
	wantPR, err := PageRankSerial(adj, alpha, prIters)
	if err != nil {
		t.Fatal(err)
	}
	resPR, err := PageRank(ctx, sys, adj, alpha, prIters)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, resPR.X, wantPR, "paper-scale pagerank")

	const source, maxIters = 0, 3
	wantBFS, _, err := BFSSerial(adj, source, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	sysB := testSystem(t, 4, 256*units.MiB)
	resBFS, err := BFS(ctx, sysB, adj, source, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	bitEqual(t, resBFS.X, wantBFS, "paper-scale bfs")
	if resPR.Stats.ExchangeBytes == 0 || resBFS.Stats.ExchangeBytes == 0 {
		t.Error("paper-scale runs moved no modeled inter-stack traffic")
	}
}

// TestOperators pins the operator constructions on a hand-checked graph:
// 0 -> 1, 0 -> 2, 1 -> 2, 3 isolated (dangling).
func TestOperators(t *testing.T) {
	adj, err := sparse.FromCOO(4, 4, []sparse.COO{
		{Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1}, {Row: 1, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, bias, err := PageRankOperator(adj, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// The operator is built in float32, so compare at float32 precision.
	approx := func(a, b float64) bool { return math.Abs(a-b) <= 1e-6 }
	if !approx(float64(bias), 0.15/4) {
		t.Errorf("bias = %v, want 0.0375", bias)
	}
	// M[1][0] = 0.85/2 (vertex 0 has outdeg 2), M[2][0] = 0.85/2,
	// M[2][1] = 0.85/1.
	get := func(mm *sparse.CSR, r, c int) float64 {
		for k := mm.RowPtr[r]; k < mm.RowPtr[r+1]; k++ {
			if int(mm.ColIdx[k]) == c {
				return float64(mm.Values[k])
			}
		}
		return 0
	}
	if !approx(get(m, 1, 0), 0.425) || !approx(get(m, 2, 0), 0.425) || !approx(get(m, 2, 1), 0.85) {
		t.Errorf("pagerank operator entries wrong: %v %v %v", get(m, 1, 0), get(m, 2, 0), get(m, 2, 1))
	}

	b, err := BFSOperator(adj)
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex gets a zero diagonal; reversed edges get weight 1.
	for v := 0; v < 4; v++ {
		found := false
		for k := b.RowPtr[v]; k < b.RowPtr[v+1]; k++ {
			if int(b.ColIdx[k]) == v && b.Values[k] == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("vertex %d has no zero diagonal", v)
		}
	}
	if get(b, 2, 0) != 1 || get(b, 2, 1) != 1 || get(b, 1, 0) != 1 {
		t.Error("bfs operator missing reversed edges")
	}

	if _, _, err := PageRankOperator(adj, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
	rect, err := sparse.FromCOO(2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PageRankOperator(rect, 0.85); err == nil {
		t.Error("rectangular adjacency accepted by PageRankOperator")
	}
	if _, err := BFSOperator(rect); err == nil {
		t.Error("rectangular adjacency accepted by BFSOperator")
	}
}

// TestAdjacencyFromMatrixMarket loads a small symmetric pattern graph and
// runs BFS on it end to end.
func TestAdjacencyFromMatrixMarket(t *testing.T) {
	const mm = `%%MatrixMarket matrix coordinate pattern symmetric
4 4 3
2 1
3 2
4 3
`
	adj, err := AdjacencyFromMatrixMarket(strings.NewReader(mm))
	if err != nil {
		t.Fatal(err)
	}
	if adj.Rows != 4 || adj.NNZ() != 6 {
		t.Fatalf("got %dx%d with %d entries, want 4x4 with 6", adj.Rows, adj.Cols, adj.NNZ())
	}
	dist, _, err := BFSSerial(adj, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float32{0, 1, 2, 3} {
		if math.Float32bits(dist[i]) != math.Float32bits(want) {
			t.Errorf("dist[%d] = %v, want %v", i, dist[i], want)
		}
	}
	if _, err := AdjacencyFromMatrixMarket(strings.NewReader("%%MatrixMarket matrix coordinate real general\n2 3 0\n")); err == nil {
		t.Error("rectangular matrix market graph accepted")
	}
}
