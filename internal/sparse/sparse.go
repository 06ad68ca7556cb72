// Package sparse provides the CSR sparse-matrix type consumed by the SPMV
// accelerator and a deterministic random-geometric-graph generator standing
// in for the University of Florida collection's rgg matrices used in the
// paper's Table 2 (rgg_n_2_20: 2^20 nodes placed uniformly in the unit
// square, edges between nodes closer than a radius chosen so the expected
// average degree matches the original graph's ~13).
package sparse

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32
	ColIdx     []int32
	Values     []float32
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Values) }

// AvgDegree returns non-zeros per row.
func (m *CSR) AvgDegree() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// Validate checks structural invariants.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("sparse: rowPtr length %d != rows+1 = %d", len(m.RowPtr), m.Rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: rowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.Rows]) != len(m.Values) || len(m.ColIdx) != len(m.Values) {
		return fmt.Errorf("sparse: nnz mismatch: rowPtr end %d, colIdx %d, values %d",
			m.RowPtr[m.Rows], len(m.ColIdx), len(m.Values))
	}
	for i := 0; i < m.Rows; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if c := int(m.ColIdx[k]); c < 0 || c >= m.Cols {
				return fmt.Errorf("sparse: row %d: column %d out of range [0,%d)", i, c, m.Cols)
			}
		}
	}
	return nil
}

// COO is a coordinate-format triple used during construction.
type COO struct {
	Row, Col int32
	Val      float32
}

// FromCOO builds a CSR matrix from coordinate triples in linear time plus
// a per-row column sort: a counting sort by row keeps each row's entries in
// input order, a stable sort orders the row by column, and duplicates of
// one (row, col) are summed in input order.
func FromCOO(rows, cols int, entries []COO) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if int(e.Row) >= rows || e.Row < 0 || int(e.Col) >= cols || e.Col < 0 {
			return nil, fmt.Errorf("sparse: entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	rowPtr := make([]int32, rows+1)
	for _, e := range entries {
		rowPtr[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	next := slices.Clone(rowPtr[:rows])
	byRow := make([]COO, len(entries))
	for _, e := range entries {
		byRow[next[e.Row]] = e
		next[e.Row]++
	}
	// Rows are compacted in place: rowPtr[r+1] still holds row r's end in
	// byRow when the row is read and its end in the output after.
	m := &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr,
		ColIdx: make([]int32, 0, len(entries)), Values: make([]float32, 0, len(entries))}
	lo := int32(0)
	for r := 0; r < rows; r++ {
		row := byRow[lo:rowPtr[r+1]]
		lo = rowPtr[r+1]
		slices.SortStableFunc(row, func(a, b COO) int { return cmp.Compare(a.Col, b.Col) })
		for k, e := range row {
			if k > 0 && row[k-1].Col == e.Col {
				m.Values[len(m.Values)-1] += e.Val
				continue
			}
			m.ColIdx = append(m.ColIdx, e.Col)
			m.Values = append(m.Values, e.Val)
		}
		rowPtr[r+1] = int32(len(m.Values))
	}
	return m, nil
}

// RGG generates the adjacency matrix of a random geometric graph with n
// nodes and the given expected average degree, deterministically from seed.
// Nodes are sorted along a space-filling order (grid cells) so the matrix
// shows the locality structure of the UF rgg matrices. All edge weights are
// 1, matching an unweighted graph adjacency matrix.
func RGG(n int, avgDegree float64, seed int64) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sparse: rgg: non-positive size %d", n)
	}
	if avgDegree < 0 || avgDegree >= float64(n) {
		return nil, fmt.Errorf("sparse: rgg: average degree %g out of range", avgDegree)
	}
	rng := rand.New(rand.NewSource(seed))
	// Radius so that expected degree = n * pi * r^2 ~= avgDegree.
	r := math.Sqrt(avgDegree / (math.Pi * float64(n)))
	type pt struct{ x, y float64 }
	pts := make([]pt, n)
	for i := range pts {
		pts[i] = pt{rng.Float64(), rng.Float64()}
	}
	// Sort by grid cell (Morton-ish row-major order) to give the matrix the
	// banded locality real rgg matrices have after their node ordering.
	cells := int(math.Ceil(1 / r))
	if cells < 1 {
		cells = 1
	}
	sort.Slice(pts, func(i, j int) bool {
		ci := int(pts[i].y*float64(cells))*cells + int(pts[i].x*float64(cells))
		cj := int(pts[j].y*float64(cells))*cells + int(pts[j].x*float64(cells))
		if ci != cj {
			return ci < cj
		}
		return pts[i].x < pts[j].x
	})
	// Bucket by cell for neighbour search.
	bucket := make(map[int][]int32)
	cellOf := func(p pt) (int, int) {
		cx := int(p.x * float64(cells))
		cy := int(p.y * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	for i, p := range pts {
		cx, cy := cellOf(p)
		key := cy*cells + cx
		bucket[key] = append(bucket[key], int32(i))
	}
	var entries []COO
	r2 := r * r
	for i, p := range pts {
		cx, cy := cellOf(p)
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || ny < 0 || nx >= cells || ny >= cells {
					continue
				}
				for _, j := range bucket[ny*cells+nx] {
					if int(j) <= i {
						continue
					}
					q := pts[j]
					ddx, ddy := p.x-q.x, p.y-q.y
					if ddx*ddx+ddy*ddy <= r2 {
						entries = append(entries,
							COO{Row: int32(i), Col: j, Val: 1},
							COO{Row: j, Col: int32(i), Val: 1})
					}
				}
			}
		}
	}
	return FromCOO(n, n, entries)
}

// Dense returns the matrix as a dense row-major slice (tests only; do not
// call on paper-scale matrices).
func (m *CSR) Dense() []float32 {
	out := make([]float32, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out[i*m.Cols+int(m.ColIdx[k])] = m.Values[k]
		}
	}
	return out
}
