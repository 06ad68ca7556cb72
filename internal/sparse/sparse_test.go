package sparse

import (
	"testing"
	"testing/quick"

	"mealib/internal/kernels"
)

func TestFromCOO(t *testing.T) {
	m, err := FromCOO(3, 3, []COO{
		{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}, {2, 2, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Errorf("nnz = %d, want 5", m.NNZ())
	}
	d := m.dense()
	want := []float32{1, 0, 2, 0, 3, 0, 4, 0, 5}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dense[%d] = %v, want %v", i, d[i], want[i])
		}
	}
}

func TestFromCOODuplicatesSummed(t *testing.T) {
	m, err := FromCOO(2, 2, []COO{{0, 0, 1}, {0, 0, 2}, {1, 1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Errorf("nnz = %d, want 2 (duplicates merged)", m.NNZ())
	}
	if d := m.dense(); d[0] != 3 {
		t.Errorf("merged value = %v, want 3", d[0])
	}
}

func TestFromCOOUnsortedInput(t *testing.T) {
	m, err := FromCOO(3, 3, []COO{{2, 1, 9}, {0, 2, 1}, {1, 0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	d := m.dense()
	if d[2] != 1 || d[3] != 4 || d[7] != 9 {
		t.Errorf("dense = %v", d)
	}
}

func TestFromCOOEmptyRows(t *testing.T) {
	m, err := FromCOO(4, 4, []COO{{3, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.RowPtr[1] != 0 || m.RowPtr[2] != 0 || m.RowPtr[3] != 0 || m.RowPtr[4] != 1 {
		t.Errorf("rowPtr = %v", m.RowPtr)
	}
}

func TestFromCOOErrors(t *testing.T) {
	if _, err := FromCOO(-1, 2, nil); err == nil {
		t.Error("negative dims must fail")
	}
	if _, err := FromCOO(2, 2, []COO{{2, 0, 1}}); err == nil {
		t.Error("out-of-range row must fail")
	}
	if _, err := FromCOO(2, 2, []COO{{0, 2, 1}}); err == nil {
		t.Error("out-of-range col must fail")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m, _ := FromCOO(2, 2, []COO{{0, 0, 1}, {1, 1, 1}})
	m.ColIdx[0] = 7
	if err := m.Validate(); err == nil {
		t.Error("corrupted column index must fail validation")
	}
}

func TestRGGProperties(t *testing.T) {
	n := 2000
	m, err := RGG(n, 13, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Rows != n || m.Cols != n {
		t.Errorf("dimensions %dx%d", m.Rows, m.Cols)
	}
	// Average degree should land near the target (generous tolerance: it is
	// a random graph).
	if d := m.avgDegree(); d < 13*0.6 || d > 13*1.4 {
		t.Errorf("avg degree %.1f, want ~13", d)
	}
	// Symmetric adjacency: every (i,j) has a (j,i).
	seen := make(map[[2]int32]bool)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			seen[[2]int32{int32(i), m.ColIdx[k]}] = true
		}
	}
	for e := range seen {
		if !seen[[2]int32{e[1], e[0]}] {
			t.Fatalf("edge (%d,%d) has no mirror", e[0], e[1])
		}
	}
	// No self loops.
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == int32(i) {
				t.Fatalf("self loop at %d", i)
			}
		}
	}
}

func TestRGGDeterministic(t *testing.T) {
	a, err := RGG(500, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RGG(500, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("same seed produced different graphs: %d vs %d", a.NNZ(), b.NNZ())
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] {
			t.Fatal("same seed produced different structure")
		}
	}
	c, err := RGG(500, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() == a.NNZ() {
		t.Log("different seeds produced same nnz (possible but unlikely)")
	}
}

func TestRGGErrors(t *testing.T) {
	if _, err := RGG(0, 5, 1); err == nil {
		t.Error("zero nodes must fail")
	}
	if _, err := RGG(10, 20, 1); err == nil {
		t.Error("degree >= n must fail")
	}
	if _, err := RGG(10, -1, 1); err == nil {
		t.Error("negative degree must fail")
	}
}

func TestRGGFeedsSpmv(t *testing.T) {
	m, err := RGG(300, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float32, m.Rows)
	if err := kernels.SpmvCSR(m.Rows, m.RowPtr, m.ColIdx, m.Values, x, y); err != nil {
		t.Fatal(err)
	}
	// y[i] must equal the degree of node i.
	for i := range y {
		deg := float32(m.RowPtr[i+1] - m.RowPtr[i])
		if y[i] != deg {
			t.Fatalf("y[%d] = %v, want degree %v", i, y[i], deg)
		}
	}
}

func TestPropertyFromCOORoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		rows, cols := 16, 16
		var entries []COO
		for i := 0; i+2 < len(raw); i += 3 {
			entries = append(entries, COO{
				Row: int32(raw[i] % 16),
				Col: int32(raw[i+1] % 16),
				Val: float32(raw[i+2]%100) + 1,
			})
		}
		m, err := FromCOO(rows, cols, entries)
		if err != nil {
			return false
		}
		if m.Validate() != nil {
			return false
		}
		// Dense sum equals entry sum (duplicates added).
		var want float64
		for _, e := range entries {
			want += float64(e.Val)
		}
		var got float64
		for _, v := range m.dense() {
			got += float64(v)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
