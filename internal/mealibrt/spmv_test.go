package mealibrt

import (
	"context"
	"slices"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// TestSpmvBadRowPtrFailsTheLaunch stores tenant-controlled bytes that make
// an installed SPMV plan's CSR arrays invalid: a negative first row
// pointer, which the kernel refuses before any row runs, and a column out
// of range in the last row, which it meets only after the rows before it
// are written. Either launch must come back as an error, not bring the
// process down; the runtime's books must balance; no byte of the plan's
// buffers outside its declared write of y may change (inside it, the bytes
// are unspecified); and once the buffer is repaired the same plan must run
// and compute the product.
func TestSpmvBadRowPtrFailsTheLaunch(t *testing.T) {
	// [[1 0 2],[0 3 0],[4 0 5]] times [1 2 3].
	goodRowPtr, goodColIdx := []int32{0, 2, 3, 5}, []int32{0, 2, 1, 0, 2}
	for _, tc := range []struct {
		name           string
		rowPtr, colIdx []int32
	}{
		{"negative first row pointer", []int32{-1, 2, 3, 5}, goodColIdx},
		{"bad column in the last row", goodRowPtr, []int32{0, 2, 1, 0, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRuntime(t)
			alloc := func(n int) *Buffer {
				b, err := r.MemAlloc(units.Bytes(4 * n))
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			rowPtr, colIdx, values, x, y := alloc(4), alloc(5), alloc(5), alloc(3), alloc(3)
			for _, err := range []error{
				colIdx.StoreInt32s(0, tc.colIdx),
				values.StoreFloat32s(0, []float32{1, 2, 3, 4, 5}),
				x.StoreFloat32s(0, []float32{1, 2, 3}),
				rowPtr.StoreInt32s(0, tc.rowPtr),
				y.StoreFloat32s(0, []float32{-1, -1, -1}),
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
			// Every region a buffer of the plan lies in, whole.
			var regions []*phys.Region
			var before [][]byte
			for _, b := range []*Buffer{rowPtr, colIdx, values, x, y} {
				region, ok := r.Space().Region(b.PA())
				if !ok {
					t.Fatal("a buffer of the plan is not mapped")
				}
				regions = append(regions, region)
				before = append(before, slices.Clone(region.Bytes()))
			}
			ctx := context.Background()
			if _, err := plan.Execute(ctx); err == nil {
				t.Fatal("the launch succeeded")
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatalf("after the failed launch: %v", err)
			}
			for i, region := range regions {
				after := slices.Clone(region.Bytes())
				if lo := int(y.PA() - region.Addr()); region.Addr() <= y.PA() && lo+12 <= len(after) {
					copy(after[lo:lo+12], before[i][lo:lo+12]) // y's declared write
				}
				if !slices.Equal(before[i], after) {
					t.Errorf("the failed launch changed bytes of the region at %s outside its declared write of y", region.Addr())
				}
			}
			if err := rowPtr.StoreInt32s(0, goodRowPtr); err != nil {
				t.Fatal(err)
			}
			if err := colIdx.StoreInt32s(0, goodColIdx); err != nil {
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
		})
	}
}
