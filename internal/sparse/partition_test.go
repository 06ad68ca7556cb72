package sparse

import (
	"testing"
	"testing/quick"
)

func TestRowBlocksBalance(t *testing.T) {
	m, err := RGG(1<<12, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 4, 8} {
		p, err := RowBlocks(m, parts)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(m.Rows); err != nil {
			t.Fatal(err)
		}
		if p.Parts() != parts {
			t.Fatalf("parts = %d, want %d", p.Parts(), parts)
		}
		// Each block holds within one row's nnz of the equal share: bound k
		// is the first row crossing k/parts of the total.
		var maxRow int32
		for i := 0; i < m.Rows; i++ {
			if d := m.RowPtr[i+1] - m.RowPtr[i]; d > maxRow {
				maxRow = d
			}
		}
		share := float64(m.NNZ()) / float64(parts)
		for k := 0; k < parts; k++ {
			lo, hi := p.Range(k)
			nnz := float64(m.RowPtr[hi] - m.RowPtr[lo])
			if nnz > share+2*float64(maxRow) || nnz < share-2*float64(maxRow) {
				t.Errorf("parts=%d block %d holds %g nnz, equal share %g (max row %d)",
					parts, k, nnz, share, maxRow)
			}
		}
	}
}

func TestRowBlocksDegenerate(t *testing.T) {
	m, err := FromCOO(4, 4, []COO{{0, 0, 1}, {3, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := RowBlocks(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(m.Rows); err != nil {
		t.Fatal(err)
	}
	if _, err := RowBlocks(m, 0); err == nil {
		t.Error("0 parts accepted")
	}
	if _, err := RowBlocks(m, 5); err == nil {
		t.Error("more parts than rows accepted")
	}
}

func TestOwnerOfMatchesBounds(t *testing.T) {
	p := Partition{Bounds: []int{0, 3, 3, 7, 10}}
	want := []int{0, 0, 0, 2, 2, 2, 2, 3, 3, 3}
	for row, k := range want {
		if got := p.OwnerOf(row); got != k {
			t.Errorf("OwnerOf(%d) = %d, want %d", row, got, k)
		}
	}
}

func TestEdgeCutTridiagonal(t *testing.T) {
	// Tridiagonal 8x8: each boundary between adjacent parts cuts exactly
	// the two off-diagonal entries straddling it.
	var entries []COO
	for i := int32(0); i < 8; i++ {
		entries = append(entries, COO{i, i, 1})
		if i > 0 {
			entries = append(entries, COO{i, i - 1, 1}, COO{i - 1, i, 1})
		}
	}
	m, err := FromCOO(8, 8, entries)
	if err != nil {
		t.Fatal(err)
	}
	if cut := EdgeCut(m, Partition{Bounds: []int{0, 4, 8}}); cut != 2 {
		t.Errorf("2-part cut = %d, want 2", cut)
	}
	if cut := EdgeCut(m, Partition{Bounds: []int{0, 2, 4, 6, 8}}); cut != 6 {
		t.Errorf("4-part cut = %d, want 6", cut)
	}
}

func TestPartitionQuickOwnership(t *testing.T) {
	// Every row belongs to exactly the block whose range contains it.
	p := Partition{Bounds: []int{0, 5, 9, 9, 20}}
	f := func(row uint8) bool {
		r := int(row) % 20
		k := p.OwnerOf(r)
		lo, hi := p.Range(k)
		return lo <= r && r < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
