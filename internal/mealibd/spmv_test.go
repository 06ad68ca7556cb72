package mealibd_test

import (
	"slices"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibd/client"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// TestRemoteBadRowPtrFailsTheLaunch is the wire half of mealibrt's
// TestSpmvBadRowPtrFailsTheLaunch: a tenant writes a negative first row
// pointer into its SPMV plan's buffer over the socket. The launch must come
// back as an error reply while the server keeps serving, the same plan must
// run once the buffer is repaired, and startServer's teardown checks the
// runtime's invariants.
func TestRemoteBadRowPtrFailsTheLaunch(t *testing.T) {
	_, addr := startServer(t, nil)
	cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "spmv"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	alloc := func(n int) *client.Buffer {
		t.Helper()
		b, err := cl.Alloc(units.Bytes(4 * n))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// [[1 0 2],[0 3 0],[4 0 5]] times [1 2 3].
	rowPtr, colIdx, values, x, y := alloc(4), alloc(5), alloc(5), alloc(3), alloc(3)
	for _, err := range []error{
		client.Store(colIdx, 0, []int32{0, 2, 1, 0, 2}),
		values.StoreFloat32s(0, []float32{1, 2, 3, 4, 5}),
		x.StoreFloat32s(0, []float32{1, 2, 3}),
		client.Store(rowPtr, 0, []int32{-1, 2, 3, 5}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpSPMV, accel.SpmvArgs{
		M: 3, Cols: 3, NNZ: 5, RowPtr: phys.Addr(rowPtr.PA()), ColIdx: phys.Addr(colIdx.PA()),
		Values: phys.Addr(values.PA()), X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := cl.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err == nil {
		t.Fatal("a remote launch over rowPtr[0] = -1 succeeded")
	}
	if err := client.Store(rowPtr, 0, []int32{0, 2, 3, 5}); err != nil {
		t.Fatalf("the connection after the failed launch: %v", err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatalf("the launch after the repair: %v", err)
	}
	got, err := y.LoadFloat32s(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float32{7, 6, 19}; !slices.Equal(got, want) {
		t.Errorf("y = %v, want %v", got, want)
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
}
