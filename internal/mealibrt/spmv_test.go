package mealibrt

import (
	"context"
	"slices"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// TestSpmvBadRowPtrFailsTheLaunch stores a negative first row pointer into
// an installed SPMV plan's row-pointer buffer, the bytes a tenant controls.
// The launch must come back as an error, not bring the process down, the
// runtime's books must balance, and once the buffer is repaired the same
// plan must run and compute the product.
func TestSpmvBadRowPtrFailsTheLaunch(t *testing.T) {
	r := newRuntime(t)
	alloc := func(n int) *Buffer {
		b, err := r.MemAlloc(units.Bytes(4 * n))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// [[1 0 2],[0 3 0],[4 0 5]] times [1 2 3].
	rowPtr, colIdx, values, x, y := alloc(4), alloc(5), alloc(5), alloc(3), alloc(3)
	for _, err := range []error{
		colIdx.StoreInt32s(0, []int32{0, 2, 1, 0, 2}),
		values.StoreFloat32s(0, []float32{1, 2, 3, 4, 5}),
		x.StoreFloat32s(0, []float32{1, 2, 3}),
		rowPtr.StoreInt32s(0, []int32{-1, 2, 3, 5}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpSPMV, accel.SpmvArgs{
		M: 3, Cols: 3, NNZ: 5, RowPtr: rowPtr.PA(), ColIdx: colIdx.PA(), Values: values.PA(), X: x.PA(), Y: y.PA(),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	plan, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := plan.Execute(ctx); err == nil {
		t.Fatal("a launch over rowPtr[0] = -1 succeeded")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("after the failed launch: %v", err)
	}
	if err := rowPtr.StoreInt32s(0, []int32{0, 2, 3, 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(ctx); err != nil {
		t.Fatalf("the launch after the repair: %v", err)
	}
	got, err := y.LoadFloat32s(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{7, 6, 19}; !slices.Equal(got, want) {
		t.Errorf("y = %v, want %v", got, want)
	}
	if err := plan.Destroy(); err != nil {
		t.Fatal(err)
	}
}
