package sparse

import (
	"fmt"
	"math"
)

// Transpose returns the matrix transpose via a counting sort over columns.
// Entries of each output row (= input column) appear in increasing input-row
// order, so the result has sorted column indices and the operation is
// deterministic: Transpose of a Transpose reproduces the original matrix
// exactly, arrays and all.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: make([]int32, m.Cols+1),
		ColIdx: make([]int32, m.NNZ()),
		Values: make([]float32, m.NNZ()),
	}
	for _, c := range m.ColIdx {
		t.RowPtr[c+1]++
	}
	for i := 0; i < m.Cols; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	next := make([]int32, m.Cols)
	copy(next, t.RowPtr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			at := next[c]
			next[c]++
			t.ColIdx[at] = int32(i)
			t.Values[at] = m.Values[k]
		}
	}
	return t
}

// RowSums returns each row's value sum, accumulated in float64 in storage
// order.
func (m *CSR) RowSums() []float64 {
	sums := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += float64(m.Values[k])
		}
		sums[i] = s
	}
	return sums
}

// symNormalize returns D^{-1/2} A D^{-1/2} where D is the diagonal of row
// sums (node degrees for an adjacency matrix). Rows with a zero sum are left
// zero; a negative row sum is an error since its square root is undefined.
func (m *CSR) symNormalize() (*CSR, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("sparse: sym-normalize of non-square %dx%d matrix", m.Rows, m.Cols)
	}
	sums := m.RowSums()
	inv := make([]float64, m.Rows)
	for i, s := range sums {
		if s < 0 {
			return nil, fmt.Errorf("sparse: sym-normalize: row %d has negative sum %g", i, s)
		}
		if s > 0 {
			inv[i] = 1 / math.Sqrt(s)
		}
	}
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int32(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Values: make([]float32, m.NNZ()),
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			out.Values[k] = float32(float64(m.Values[k]) * inv[i] * inv[m.ColIdx[k]])
		}
	}
	return out, nil
}

// ScaleColumns multiplies every column j by scale[j], returning a new
// matrix. graph.PageRankOperator stores the same products in place over a
// transpose it owns; its tests hold it to this copy.
func (m *CSR) ScaleColumns(scale []float64) (*CSR, error) {
	if len(scale) != m.Cols {
		return nil, fmt.Errorf("sparse: %d column scales for %d columns", len(scale), m.Cols)
	}
	out := &CSR{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int32(nil), m.RowPtr...),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Values: make([]float32, m.NNZ()),
	}
	for k, c := range m.ColIdx {
		out.Values[k] = float32(float64(m.Values[k]) * scale[c])
	}
	return out, nil
}
