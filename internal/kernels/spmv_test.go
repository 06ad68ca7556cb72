package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// smallCSR is the 3x3 matrix [[1 0 2],[0 3 0],[4 0 5]].
func smallCSR() (rowPtr, colIdx []int32, values []float32) {
	return []int32{0, 2, 3, 5}, []int32{0, 2, 1, 0, 2}, []float32{1, 2, 3, 4, 5}
}

func TestSpmvKnown(t *testing.T) {
	rp, ci, v := smallCSR()
	x := []float32{1, 2, 3}
	y := make([]float32, 3)
	if err := SpmvCSR(3, rp, ci, v, x, y); err != nil {
		t.Fatal(err)
	}
	want := []float32{1*1 + 2*3, 3 * 2, 4*1 + 5*3}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSpmvMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 200, 150
	var rowPtr []int32
	var colIdx []int32
	var values []float32
	rowPtr = append(rowPtr, 0)
	for i := 0; i < m; i++ {
		deg := rng.Intn(8)
		for d := 0; d < deg; d++ {
			colIdx = append(colIdx, int32(rng.Intn(n)))
			values = append(values, float32(rng.NormFloat64()))
		}
		rowPtr = append(rowPtr, int32(len(values)))
	}
	x := randVec(rng, n)
	y := make([]float32, m)
	if err := SpmvCSR(m, rowPtr, colIdx, values, x, y); err != nil {
		t.Fatal(err)
	}
	want := spmvScalar(m, rowPtr, colIdx, values, x, SemiringPlusTimes, 0)
	for i := range want {
		if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
			t.Fatalf("row %d: kernel %v, scalar loop %v", i, y[i], want[i])
		}
	}
}

func TestSpmvEmptyRows(t *testing.T) {
	rowPtr := []int32{0, 0, 1, 1}
	colIdx := []int32{0}
	values := []float32{7}
	x := []float32{2}
	y := []float32{9, 9, 9}
	if err := SpmvCSR(3, rowPtr, colIdx, values, x, y); err != nil {
		t.Fatal(err)
	}
	if y[0] != 0 || y[1] != 14 || y[2] != 0 {
		t.Errorf("y = %v, want [0 14 0]", y)
	}
}

func TestSpmvErrors(t *testing.T) {
	rp, ci, v := smallCSR()
	x := make([]float32, 3)
	y := make([]float32, 3)
	if err := SpmvCSR(-1, rp, ci, v, x, y); err == nil {
		t.Error("negative rows must fail")
	}
	if err := SpmvCSR(4, rp, ci, v, x, y); err == nil {
		t.Error("short rowPtr must fail")
	}
	if err := SpmvCSR(3, rp, ci, v, x, y[:2]); err == nil {
		t.Error("short y must fail")
	}
	if err := SpmvCSR(3, []int32{0, 2, 1, 5}, ci, v, x, y); err == nil {
		t.Error("non-monotone rowPtr must fail")
	}
	if err := SpmvCSR(3, rp, []int32{0, 2, 1, 0, 7}, v, x, y); err == nil {
		t.Error("column index out of range must fail")
	}
	if err := SpmvCSR(3, rp, []int32{0, 2, 1, -1, 2}, v, x, y); err == nil {
		t.Error("negative column index must fail")
	}
	if err := SpmvCSR(2, []int32{-1, 0, 1}, ci, v, x, y); err == nil {
		t.Error("negative first row pointer must fail")
	}
}

func TestSpmvSemiringPlusTimesMatchesSpmv(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n := 128, 128
	rowPtr := []int32{0}
	var colIdx []int32
	var values []float32
	for i := 0; i < m; i++ {
		for d := rng.Intn(6); d > 0; d-- {
			colIdx = append(colIdx, int32(rng.Intn(n)))
			values = append(values, float32(rng.NormFloat64()))
		}
		rowPtr = append(rowPtr, int32(len(values)))
	}
	x := randVec(rng, n)
	y1 := make([]float32, m)
	y2 := make([]float32, m)
	if err := SpmvCSR(m, rowPtr, colIdx, values, x, y1); err != nil {
		t.Fatal(err)
	}
	if err := SpmvCSRSemiring(m, rowPtr, colIdx, values, x, y2, SemiringPlusTimes, 0); err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if math.Float32bits(y1[i]) != math.Float32bits(y2[i]) {
			t.Fatalf("row %d: semiring %v, plain %v (must be bit-identical)", i, y2[i], y1[i])
		}
	}
}

func TestSpmvSemiringBias(t *testing.T) {
	rp, ci, v := smallCSR()
	x := []float32{1, 2, 3}
	y := make([]float32, 3)
	if err := SpmvCSRSemiring(3, rp, ci, v, x, y, SemiringPlusTimes, 10); err != nil {
		t.Fatal(err)
	}
	want := []float32{10 + 7, 10 + 6, 10 + 19}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestSpmvSemiringMinPlus(t *testing.T) {
	// Path graph 0-1-2 with unit weights plus explicit zero diagonal:
	// one relaxation from dist = [0, inf, inf] reaches node 1.
	rowPtr := []int32{0, 2, 5, 7}
	colIdx := []int32{0, 1, 0, 1, 2, 1, 2}
	values := []float32{0, 1, 1, 0, 1, 1, 0}
	inf := float32(math.Inf(1))
	x := []float32{0, inf, inf}
	y := make([]float32, 3)
	if err := SpmvCSRSemiring(3, rowPtr, colIdx, values, x, y, SemiringMinPlus, inf); err != nil {
		t.Fatal(err)
	}
	if y[0] != 0 || y[1] != 1 || !math.IsInf(float64(y[2]), 1) {
		t.Fatalf("after one relaxation dist = %v, want [0 1 +inf]", y)
	}
	// Second relaxation reaches node 2; a third is a fixed point.
	x, y = y, x
	if err := SpmvCSRSemiring(3, rowPtr, colIdx, values, x, y, SemiringMinPlus, inf); err != nil {
		t.Fatal(err)
	}
	if y[0] != 0 || y[1] != 1 || y[2] != 2 {
		t.Fatalf("after two relaxations dist = %v, want [0 1 2]", y)
	}
	x, y = y, x
	if err := SpmvCSRSemiring(3, rowPtr, colIdx, values, x, y, SemiringMinPlus, inf); err != nil {
		t.Fatal(err)
	}
	if y[0] != 0 || y[1] != 1 || y[2] != 2 {
		t.Fatalf("fixed point broken: dist = %v, want [0 1 2]", y)
	}
	// Min-plus with a finite bias caps every row.
	if err := SpmvCSRSemiring(3, rowPtr, colIdx, values, x, y, SemiringMinPlus, 0.5); err != nil {
		t.Fatal(err)
	}
	if y[0] != 0 || y[1] != 0.5 || y[2] != 0.5 {
		t.Fatalf("biased min-plus = %v, want [0 0.5 0.5]", y)
	}
}

func TestSpmvSemiringUnknown(t *testing.T) {
	rp, ci, v := smallCSR()
	x := make([]float32, 3)
	y := make([]float32, 3)
	if err := SpmvCSRSemiring(3, rp, ci, v, x, y, 99, 0); err == nil {
		t.Error("unknown semiring must fail")
	}
}

// TestSpmvFirstBadColumnAnyProcs: a column out of range fails the call with
// an error naming the first bad column in CSR order, whatever the row split.
// Two bad columns sit in different rows, at two layouts: at two workers the
// later chunk meets its bad column first in one, last in the other.
//
// Gate (check.sh): core count, at -cpu 1,2,3.
func TestSpmvFirstBadColumnAnyProcs(t *testing.T) {
	m := minParallel + 3
	half := (m + 1) / 2 // where the second of two chunks starts
	for _, rows := range [][2]int{{half - 1, half}, {0, m - 1}} {
		rowPtr := make([]int32, m+1)
		colIdx := make([]int32, 0, 2*m)
		for i := 0; i < m; i++ {
			colIdx = append(colIdx, int32(i%7), int32((i+3)%7))
			rowPtr[i+1] = int32(len(colIdx))
		}
		values := make([]float32, len(colIdx))
		x := make([]float32, 7)
		colIdx[rowPtr[rows[0]]+1] = -3
		colIdx[rowPtr[rows[1]]] = 7
		want := fmt.Sprintf("kernels: spmv: row %d: column index -3 out of range [0,7)", rows[0])
		for _, procs := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
			withProcs(t, procs, func() {
				for _, semiring := range []int64{SemiringPlusTimes, SemiringMinPlus} {
					err := SpmvCSRSemiring(m, rowPtr, colIdx, values, x, make([]float32, m), semiring, 0)
					if err == nil || err.Error() != want {
						t.Errorf("bad rows %v, GOMAXPROCS %d, semiring %d: err = %v, want %q", rows, procs, semiring, err, want)
					}
				}
			})
		}
	}
}
