package graph

import (
	"fmt"
	"reflect"
	"testing"

	"mealib/internal/sparse"
)

// bfsOperatorCOO is the COO construction BFSOperator replaced, kept as its
// oracle: one zero diagonal triple per vertex, then a unit triple for every
// non-self edge of the transpose, all sorted and merged by FromCOO.
func bfsOperatorCOO(adj *sparse.CSR) (*sparse.CSR, error) {
	t := adj.Transpose()
	entries := make([]sparse.COO, 0, t.NNZ()+t.Rows)
	for v := 0; v < t.Rows; v++ {
		entries = append(entries, sparse.COO{Row: int32(v), Col: int32(v), Val: 0})
		for k := t.RowPtr[v]; k < t.RowPtr[v+1]; k++ {
			if u := t.ColIdx[k]; int(u) != v {
				entries = append(entries, sparse.COO{Row: int32(v), Col: u, Val: 1})
			}
		}
	}
	return sparse.FromCOO(t.Rows, t.Cols, entries)
}

// operatorGraphs are the adjacencies the operator tests build from: RGGs of
// several seeds, and a hand-built CSR with self-loops (two of them stored
// twice), a repeated column, an unsorted row and an empty row, which
// FromCOO could never produce.
func operatorGraphs(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	graphs := map[string]*sparse.CSR{
		"loops and repeats": {
			Rows: 4, Cols: 4,
			RowPtr: []int32{0, 4, 6, 6, 11},
			ColIdx: []int32{0, 1, 1, 3, 1, 1, 3, 0, 0, 2, 3},
			Values: []float32{5, 2, 2, 1, 7, 7, 1, 3, 3, 1, 4},
		},
	}
	for _, seed := range []int64{1, 2, 7, 42} {
		adj, err := sparse.RGG(1<<10, 13, seed)
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("rgg seed %d", seed)] = adj
	}
	return graphs
}

// TestBFSOperatorMatchesCOOBuild requires the merged construction to store
// exactly what the COO construction stores: the same rows, the same column
// order, a repeated edge weighing its multiplicity and every self-loop
// replaced by the zero diagonal.
func TestBFSOperatorMatchesCOOBuild(t *testing.T) {
	for name, adj := range operatorGraphs(t) {
		got, err := BFSOperator(adj)
		if err != nil {
			t.Fatal(err)
		}
		want, err := bfsOperatorCOO(adj)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestPageRankOperatorMatchesScaleColumns requires the in-place scaling to
// store exactly what scaling a copy of the transpose stores.
func TestPageRankOperatorMatchesScaleColumns(t *testing.T) {
	const alpha = 0.85
	for name, adj := range operatorGraphs(t) {
		got, _, err := PageRankOperator(adj, alpha)
		if err != nil {
			t.Fatal(err)
		}
		scale := make([]float64, adj.Rows)
		for u, d := range adj.RowSums() {
			if d > 0 {
				scale[u] = float64(alpha) / d
			}
		}
		want, err := adj.Transpose().ScaleColumns(scale)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestOperatorAllocations bounds what building an operator allocates: the
// transpose's arrays, the operator's arrays and the degree vectors, a
// fixed count whatever the graph's size. A COO buffer, a sort or append
// growth would each add to it.
func TestOperatorAllocations(t *testing.T) {
	adj, err := sparse.RGG(1<<12, 13, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func() error
		max   float64
	}{
		{"BFSOperator", func() error { _, err := BFSOperator(adj); return err }, 9},
		{"PageRankOperator", func() error { _, _, err := PageRankOperator(adj, 0.85); return err }, 7},
	} {
		var err error
		got := testing.AllocsPerRun(5, func() { err = c.build() })
		if err != nil {
			t.Fatal(err)
		}
		if got > c.max {
			t.Errorf("%s allocates %v times per build, want at most %v", c.name, got, c.max)
		}
	}
}
