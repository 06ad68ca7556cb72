package kernels

import "fmt"

// SpmvCSR is the optimized variant: row-parallel with float64 accumulation.
// It is SpmvCSRSemiring over plus-times with a zero bias.
func SpmvCSR(m int, rowPtr []int32, colIdx []int32, values []float32, x []float32, y []float32) error {
	return SpmvCSRSemiring(m, rowPtr, colIdx, values, x, y, SemiringPlusTimes, 0)
}

// Semirings accepted by SpmvCSRSemiring. Plus-times is the ordinary
// arithmetic SpMV; min-plus (the tropical semiring) turns the same gather
// structure into a relaxation step, which is how BFS/SSSP run as iterated
// matrix-vector products.
const (
	SemiringPlusTimes int64 = iota
	SemiringMinPlus
)

// SpmvCSRSemiring computes y over the selected semiring, seeding each row's
// accumulator with bias:
//
//	plus-times: y[i] = bias + sum_k values[k]*x[colIdx[k]]
//	min-plus:   y[i] = min(bias, min_k values[k]+x[colIdx[k]])
//
// Plus-times accumulates in float64 in CSR entry order. Min-plus works in
// float32 directly (min is exact, no rounding order to fix). Both are
// row-parallel; rows never share an accumulator, so results do not depend
// on the parallel split. checkCSR has already proven every row range in
// bounds, so each row is walked as one colIdx/values slice pair, and the
// loop that gathers x[c] checks c with one unsigned compare (which also
// stands in for Go's own bounds check there). A row with a column out of
// range stops its chunk unwritten, and the error names the first such
// column in CSR order. The rows other chunks wrote stay written: on error,
// y's first m elements are unspecified.
func SpmvCSRSemiring(m int, rowPtr []int32, colIdx []int32, values []float32, x []float32, y []float32, semiring int64, bias float32) error {
	if err := checkCSR(m, rowPtr, colIdx, values, y); err != nil {
		return err
	}
	csr := csrRows{rowPtr, colIdx, values, x, y, bias}
	var stop int
	switch semiring {
	case SemiringPlusTimes:
		stop = parallelRanges(m, plusTimesRows{csr})
	case SemiringMinPlus:
		stop = parallelRanges(m, minPlusRows{csr})
	default:
		return fmt.Errorf("kernels: spmv: unknown semiring %d", semiring)
	}
	if stop == m {
		return nil
	}
	for _, c := range colIdx[rowPtr[stop]:rowPtr[stop+1]] {
		if uint(c) >= uint(len(x)) {
			return fmt.Errorf("kernels: spmv: row %d: column index %d out of range [0,%d)", stop, c, len(x))
		}
	}
	// Only a y that aliases colIdx can have overwritten the bad column since.
	return fmt.Errorf("kernels: spmv: row %d: column index out of range [0,%d)", stop, len(x))
}

// csrRows is SpmvCSRSemiring's operands, which each semiring's range body
// over rows embeds.
type csrRows struct {
	rowPtr, colIdx []int32
	values, x, y   []float32
	bias           float32
}

// plusTimesRows is the range body over plus-times.
type plusTimesRows struct{ csrRows }

// span computes rows [lo, hi) and returns hi, or the first row that has a
// column out of range, which it leaves unwritten.
func (r plusTimesRows) span(lo, hi int) int {
	rowPtr, colIdx, values, x, y, bias := r.rowPtr, r.colIdx, r.values, r.x, r.y, r.bias
	for i := lo; i < hi; i++ {
		a, b := rowPtr[i], rowPtr[i+1]
		vals := values[a:b]
		sum := float64(bias)
		for k, c := range colIdx[a:b] {
			j := int(c)
			if uint(j) >= uint(len(x)) {
				return i
			}
			sum += float64(vals[k]) * float64(x[j])
		}
		y[i] = float32(sum)
	}
	return hi
}

// minPlusRows is the range body over min-plus.
type minPlusRows struct{ csrRows }

// span is plusTimesRows.span over min-plus.
func (r minPlusRows) span(lo, hi int) int {
	rowPtr, colIdx, values, x, y, bias := r.rowPtr, r.colIdx, r.values, r.x, r.y, r.bias
	for i := lo; i < hi; i++ {
		a, b := rowPtr[i], rowPtr[i+1]
		vals := values[a:b]
		best := bias
		for k, c := range colIdx[a:b] {
			j := int(c)
			if uint(j) >= uint(len(x)) {
				return i
			}
			if d := vals[k] + x[j]; d < best {
				best = d
			}
		}
		y[i] = best
	}
	return hi
}

// checkCSR proves every row range in bounds before any row is written:
// rowPtr starts at or above zero and never decreases, so each row's entries
// lie within [0, nnz], which colIdx and values cover.
func checkCSR(m int, rowPtr, colIdx []int32, values, y []float32) error {
	if m < 0 {
		return fmt.Errorf("kernels: spmv: negative rows %d", m)
	}
	if len(rowPtr) < m+1 {
		return fmt.Errorf("kernels: spmv: rowPtr length %d < m+1=%d", len(rowPtr), m+1)
	}
	if rowPtr[0] < 0 {
		return fmt.Errorf("kernels: spmv: rowPtr[0] = %d is negative", rowPtr[0])
	}
	nnz := int(rowPtr[m])
	if len(colIdx) < nnz || len(values) < nnz {
		return fmt.Errorf("kernels: spmv: colIdx/values length %d/%d < nnz=%d", len(colIdx), len(values), nnz)
	}
	if len(y) < m {
		return fmt.Errorf("kernels: spmv: y length %d < m=%d", len(y), m)
	}
	for i := 0; i < m; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return fmt.Errorf("kernels: spmv: rowPtr not monotone at row %d", i)
		}
	}
	return nil
}
