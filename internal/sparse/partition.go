package sparse

import (
	"fmt"
	"sort"
)

// Row partitioning for multi-stack graph processing: a matrix sharded over N
// memory stacks is split into contiguous row blocks, one per stack, so every
// shard keeps the CSR row order of the original matrix (bit-identical
// per-row results regardless of the partition) and the owned segment of the
// iteration vector stays a single contiguous range. The partitioners below
// produce nnz-balanced blocks, optionally refined to reduce the edge cut —
// the entries whose row and column land on different stacks, which is
// exactly the inter-stack vector-exchange traffic an iterated SpMV
// generates.

// Partition is a contiguous row-block partition of a square matrix: part k
// owns rows [Bounds[k], Bounds[k+1]). Bounds has Parts()+1 entries, is
// monotone non-decreasing, and spans [0, rows].
type Partition struct {
	Bounds []int
}

// Parts returns the number of blocks.
func (p Partition) Parts() int { return len(p.Bounds) - 1 }

// Range returns part k's half-open row range.
func (p Partition) Range(k int) (lo, hi int) { return p.Bounds[k], p.Bounds[k+1] }

// OwnerOf returns the part owning the row (rows past the last bound belong
// to the last part; callers validate ranges).
func (p Partition) OwnerOf(row int) int {
	// First bound strictly above row, minus one.
	k := sort.SearchInts(p.Bounds[1:], row+1)
	if k >= p.Parts() {
		k = p.Parts() - 1
	}
	return k
}

// Validate checks the partition against a row count.
func (p Partition) Validate(rows int) error {
	if len(p.Bounds) < 2 {
		return fmt.Errorf("sparse: partition needs at least one part")
	}
	if p.Bounds[0] != 0 || p.Bounds[len(p.Bounds)-1] != rows {
		return fmt.Errorf("sparse: partition bounds %v do not span [0,%d]", p.Bounds, rows)
	}
	for i := 1; i < len(p.Bounds); i++ {
		if p.Bounds[i] < p.Bounds[i-1] {
			return fmt.Errorf("sparse: partition bounds %v not monotone", p.Bounds)
		}
	}
	return nil
}

// RowBlocks splits the matrix into parts contiguous row blocks balanced by
// non-zero count: bound k is the smallest row at which the cumulative nnz
// reaches k/parts of the total. Deterministic for a given matrix.
func RowBlocks(m *CSR, parts int) (Partition, error) {
	if parts < 1 {
		return Partition{}, fmt.Errorf("sparse: non-positive part count %d", parts)
	}
	if parts > m.Rows && m.Rows > 0 {
		return Partition{}, fmt.Errorf("sparse: %d parts for %d rows", parts, m.Rows)
	}
	total := int64(m.NNZ())
	bounds := make([]int, parts+1)
	bounds[parts] = m.Rows
	row := 0
	for k := 1; k < parts; k++ {
		target := total * int64(k) / int64(parts)
		for row < m.Rows && int64(m.RowPtr[row]) < target {
			row++
		}
		// Never leave an earlier part more rows than remain for later ones.
		if maxRow := m.Rows - (parts - k); row > maxRow {
			row = maxRow
		}
		bounds[k] = row
	}
	for k := 1; k < parts; k++ {
		if bounds[k] < bounds[k-1] {
			bounds[k] = bounds[k-1]
		}
	}
	return Partition{Bounds: bounds}, nil
}

// EdgeCut counts the stored entries whose row and column belong to
// different parts — for an adjacency matrix, the edges that cross stacks
// and therefore the per-iteration exchange volume of a sharded SpMV.
func EdgeCut(m *CSR, p Partition) int64 {
	var cut int64
	for i := 0; i < m.Rows; i++ {
		owner := p.OwnerOf(i)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if p.OwnerOf(int(m.ColIdx[k])) != owner {
				cut++
			}
		}
	}
	return cut
}
