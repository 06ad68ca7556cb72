package kernels

import "fmt"

// SpmvCSRNaive computes y = A*x for a CSR matrix with m rows: rowPtr has
// m+1 entries, colIdx/values have nnz entries (mkl_scsrgemv semantics with
// zero-based indexing).
func SpmvCSRNaive(m int, rowPtr []int32, colIdx []int32, values []float32, x []float32, y []float32) error {
	if err := checkCSR(m, rowPtr, colIdx, values, x, y); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		var sum float32
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			sum += values[k] * x[colIdx[k]]
		}
		y[i] = sum
	}
	return nil
}

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
// on the parallel split. checkCSR has already proven every row range and
// column index in bounds, so each row is walked as one colIdx/values slice
// pair and the only per-entry bounds check left is the gather x[c].
func SpmvCSRSemiring(m int, rowPtr []int32, colIdx []int32, values []float32, x []float32, y []float32, semiring int64, bias float32) error {
	if err := checkCSR(m, rowPtr, colIdx, values, x, y); err != nil {
		return err
	}
	switch semiring {
	case SemiringPlusTimes:
		parallelRanges(m, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := rowPtr[i], rowPtr[i+1]
				vals := values[a:b]
				sum := float64(bias)
				for k, c := range colIdx[a:b] {
					sum += float64(vals[k]) * float64(x[c])
				}
				y[i] = float32(sum)
			}
		})
	case SemiringMinPlus:
		parallelRanges(m, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := rowPtr[i], rowPtr[i+1]
				vals := values[a:b]
				best := bias
				for k, c := range colIdx[a:b] {
					if d := vals[k] + x[c]; d < best {
						best = d
					}
				}
				y[i] = best
			}
		})
	default:
		return fmt.Errorf("kernels: spmv: unknown semiring %d", semiring)
	}
	return nil
}

// checkCSR proves the kernels' indexing in bounds: rowPtr starts at or
// above zero and never decreases, so every row range lies within
// [0, nnz], and every column index of those rows addresses x.
func checkCSR(m int, rowPtr, colIdx []int32, values, x, y []float32) error {
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
	// One unsigned compare per column (a negative one converts above any
	// length), four a step; the loop after names the first bad column.
	n, cols := uint(len(x)), colIdx[:nnz]
	for len(cols) >= 4 && uint(cols[0]) < n && uint(cols[1]) < n && uint(cols[2]) < n && uint(cols[3]) < n {
		cols = cols[4:]
	}
	for _, c := range cols {
		if uint(c) >= n {
			return fmt.Errorf("kernels: spmv: column index %d out of range [0,%d)", c, len(x))
		}
	}
	return nil
}
