package sparse

import (
	"math"
	"testing"
)

func TestTransposeSmall(t *testing.T) {
	m, err := FromCOO(2, 3, []COO{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose is %dx%d, want 3x2", tr.Rows, tr.Cols)
	}
	d := tr.dense()
	want := []float32{1, 0, 0, 3, 2, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dense[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

// TestTransposeInvolution checks transpose∘transpose == identity exactly —
// same arrays element for element, including value bit patterns.
func TestTransposeInvolution(t *testing.T) {
	m, err := RGG(1<<10, 9, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the values so symmetric structure can't mask index errors.
	for k := range m.Values {
		m.Values[k] = float32(k%17) - 3.5
	}
	tt := m.Transpose().Transpose()
	if tt.Rows != m.Rows || tt.Cols != m.Cols {
		t.Fatalf("round trip is %dx%d, want %dx%d", tt.Rows, tt.Cols, m.Rows, m.Cols)
	}
	for i := range m.RowPtr {
		if tt.RowPtr[i] != m.RowPtr[i] {
			t.Fatalf("rowPtr[%d] = %d, want %d", i, tt.RowPtr[i], m.RowPtr[i])
		}
	}
	for k := range m.ColIdx {
		if tt.ColIdx[k] != m.ColIdx[k] {
			t.Fatalf("colIdx[%d] = %d, want %d", k, tt.ColIdx[k], m.ColIdx[k])
		}
		if math.Float32bits(tt.Values[k]) != math.Float32bits(m.Values[k]) {
			t.Fatalf("values[%d] = %v, want %v", k, tt.Values[k], m.Values[k])
		}
	}
}

// TestTransposeRowColSums checks the transpose's row sums equal the
// original's column sums; both are accumulated in float64 in the same
// (row-major) entry order, so they agree exactly.
func TestTransposeRowColSums(t *testing.T) {
	m, err := RGG(1<<9, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.Values {
		m.Values[k] = 1 + float32(k%5)*0.25
	}
	colSums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			colSums[m.ColIdx[k]] += float64(m.Values[k])
		}
	}
	trSums := m.Transpose().RowSums()
	for j := range colSums {
		if trSums[j] != colSums[j] {
			t.Fatalf("transpose row sum %d = %v, column sum %v", j, trSums[j], colSums[j])
		}
	}
}

func TestSymNormalizeRowSums(t *testing.T) {
	m, err := RGG(1<<9, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	norm, err := m.symNormalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := norm.Validate(); err != nil {
		t.Fatal(err)
	}
	// For N = D^{-1/2} A D^{-1/2} with unit weights, row i sums to
	// sum_j 1/sqrt(d_i d_j); check against a direct recomputation.
	deg := m.RowSums()
	sums := norm.RowSums()
	for i := 0; i < m.Rows; i++ {
		var want float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			want += float64(float32(float64(m.Values[k]) / math.Sqrt(deg[i]*deg[int(m.ColIdx[k])])))
		}
		if math.Abs(sums[i]-want) > 1e-9 {
			t.Fatalf("normalized row %d sums to %v, want %v", i, sums[i], want)
		}
	}
}

func TestSymNormalizeZeroRow(t *testing.T) {
	m, err := FromCOO(3, 3, []COO{{0, 0, 2}, {2, 2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	norm, err := m.symNormalize()
	if err != nil {
		t.Fatal(err)
	}
	d := norm.dense()
	if d[0] != 1 || d[8] != 1 {
		t.Errorf("diagonal normalization: got %v and %v, want 1 and 1", d[0], d[8])
	}
	if _, err := m.Transpose().symNormalize(); err != nil {
		t.Log(err) // transpose of square is fine; just exercise the path
	}
	bad, err := FromCOO(2, 2, []COO{{0, 0, -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bad.symNormalize(); err == nil {
		t.Error("negative row sum accepted")
	}
	rect, err := FromCOO(2, 3, []COO{{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rect.symNormalize(); err == nil {
		t.Error("non-square matrix accepted")
	}
}

func TestScaleColumns(t *testing.T) {
	m, err := FromCOO(2, 2, []COO{{0, 0, 2}, {0, 1, 4}, {1, 1, 8}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.ScaleColumns([]float64{0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	d := out.dense()
	want := []float32{1, 1, 0, 2}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dense[%d] = %v, want %v", i, d[i], want[i])
		}
	}
	if _, err := m.ScaleColumns([]float64{1}); err == nil {
		t.Error("wrong scale length accepted")
	}
}
