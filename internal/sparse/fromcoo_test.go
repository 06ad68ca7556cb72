package sparse

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// fromCOOSorted is the sort-based builder FromCOO replaced, kept as its
// oracle: sort the triples by (row, col), then merge runs of one (row, col)
// by summation. The sort is stable, so a run is summed in input order.
func fromCOOSorted(rows, cols int, entries []COO) *CSR {
	sorted := append([]COO(nil), entries...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for i, e := range sorted {
		if i > 0 && sorted[i-1].Row == e.Row && sorted[i-1].Col == e.Col {
			m.Values[len(m.Values)-1] += e.Val
			continue
		}
		m.ColIdx = append(m.ColIdx, e.Col)
		m.Values = append(m.Values, e.Val)
		m.RowPtr[e.Row+1] = int32(len(m.Values))
	}
	for i := 1; i <= rows; i++ {
		if m.RowPtr[i] < m.RowPtr[i-1] {
			m.RowPtr[i] = m.RowPtr[i-1]
		}
	}
	return m
}

// sameCSR compares two matrices array by array; a nil and an empty array
// store the same (empty) matrix.
func sameCSR(a, b *CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) &&
		slices.Equal(a.ColIdx, b.ColIdx) && slices.Equal(a.Values, b.Values)
}

// TestFromCOOMatchesSortReference draws random shapes, many with empty rows
// and repeated (row, col) pairs whose float32 sums depend on their order,
// and requires FromCOO to store exactly what the sort-based oracle stores.
func TestFromCOOMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 300; trial++ {
		rows, cols := rng.Intn(20), 1+rng.Intn(20)
		n := rng.Intn(50 * (rows + 1))
		if rows == 0 {
			n = 0
		}
		entries := make([]COO, n)
		for i := range entries {
			// Few distinct columns make duplicates common; values of mixed
			// magnitude make their sum order-sensitive.
			entries[i] = COO{Row: int32(rng.Intn(rows)), Col: int32(rng.Intn(1 + cols/3)),
				Val: float32(rng.NormFloat64() * float64(int(1)<<rng.Intn(30)))}
		}
		got, err := FromCOO(rows, cols, entries)
		if err != nil {
			t.Fatal(err)
		}
		if want := fromCOOSorted(rows, cols, entries); !sameCSR(got, want) {
			t.Fatalf("trial %d (%dx%d, %d entries):\n got %+v\nwant %+v", trial, rows, cols, n, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}

	// 1e8 + -1e8 + 1 is 1 in input order; any other order loses the 1 or
	// the 1e8 to float32 rounding.
	m, err := FromCOO(2, 2, []COO{{1, 0, 1e8}, {0, 1, 7}, {1, 0, -1e8}, {1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.dense()[2]; got != 1 {
		t.Errorf("duplicates 1e8, -1e8, 1 summed to %v, want 1 (input order)", got)
	}
}
