package mealibrt

import (
	"context"
	"math"
	"slices"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// multiStackRuntime builds a runtime with n stacks of 16 MiB each.
func multiStackRuntime(t *testing.T, n int) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Driver.DataSize = 16 * units.MiB
	cfg.Driver.Stacks = n
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkQuiescent(t, rt)
	return rt
}

// axpyPlanOn allocates x and y on the given stack, seeds them, and plans an
// AXPY targeted at the given layer stack.
func axpyPlanOn(t *testing.T, rt *Runtime, bufStack, layerStack, n int) (*Plan, *Buffer, []float32, []float32) {
	t.Helper()
	x, err := rt.MemAllocOn(bufStack, units.Bytes(4*n))
	if err != nil {
		t.Fatal(err)
	}
	y, err := rt.MemAllocOn(bufStack, units.Bytes(4*n))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i%13) - 5
		ys[i] = float32(i%7) * 0.25
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, ys); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(n), Alpha: 2, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := rt.AccPlanDescriptorOn(layerStack, d)
	if err != nil {
		t.Fatal(err)
	}
	return p, y, xs, ys
}

// TestAccPlanDescriptorOnLocality runs the same launch homed on the stack
// holding its operands and homed across the link, and checks the model
// charges remote traffic only in the second case — with identical results.
func TestAccPlanDescriptorOnLocality(t *testing.T) {
	rt := multiStackRuntime(t, 2)
	const n = 4096

	local, yl, xs, ys := axpyPlanOn(t, rt, 1, 1, n)
	invL, err := local.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if invL.Report.RemoteBytes != 0 {
		t.Errorf("stack-1 launch over stack-1 buffers billed %d remote bytes", invL.Report.RemoteBytes)
	}

	remote, yr, _, _ := axpyPlanOn(t, rt, 1, 0, n)
	invR, err := remote.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if invR.Report.RemoteBytes == 0 {
		t.Error("stack-0 launch over stack-1 buffers billed no remote bytes")
	}
	if invR.Report.Time <= invL.Report.Time {
		t.Errorf("remote launch time %v not above local %v", invR.Report.Time, invL.Report.Time)
	}

	gl, err := yl.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := yr.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gl {
		want := ys[i] + 2*xs[i]
		if math.Float32bits(gl[i]) != math.Float32bits(want) || math.Float32bits(gr[i]) != math.Float32bits(want) {
			t.Fatalf("element %d: local %v remote %v, want %v", i, gl[i], gr[i], want)
		}
	}
}

// TestDisjointStackLaunchesAdmitConcurrently submits two plans with
// disjoint footprints to two different layers and checks both run.
func TestDisjointStackLaunchesAdmitConcurrently(t *testing.T) {
	rt := multiStackRuntime(t, 2)
	const n = 1 << 14
	p0, y0, xs, ys := axpyPlanOn(t, rt, 0, 0, n)
	p1, y1, _, _ := axpyPlanOn(t, rt, 1, 1, n)
	ctx := context.Background()
	pi0, err := p0.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	pi1, err := p1.Submit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pi0.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pi1.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	for _, y := range []*Buffer{y0, y1} {
		got, err := y.LoadFloat32s(0, n)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := ys[i] + 2*xs[i]
			if math.Float32bits(got[i]) != math.Float32bits(want) {
				t.Fatalf("element %d = %v, want %v", i, got[i], want)
			}
		}
	}
}

// TestDeviceCopyFloat32s checks the stack-to-stack DMA path: data moves
// bit-exactly, the copy leaves the host coherence model's dirty estimate
// untouched (unlike a host store of the same bytes), and overruns error.
func TestDeviceCopyFloat32s(t *testing.T) {
	rt := multiStackRuntime(t, 2)
	const n = 1 << 18
	src, err := rt.MemAllocOn(0, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := rt.MemAllocOn(1, 4*n)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]float32, n)
	for i := range vs {
		vs[i] = float32(i%97) * 0.5
	}
	if err := src.StoreFloat32s(0, vs); err != nil {
		t.Fatal(err)
	}
	// Drain the dirty set with a baseline launch, then compare the flush
	// cost of a launch after a device copy (clean) against one after a host
	// store of the same bytes (dirty).
	p, _, _, _ := axpyPlanOn(t, rt, 0, 0, 1<<12)
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := rt.DeviceCopyFloat32s(dst, 0, src, 0, n); err != nil {
		t.Fatal(err)
	}
	afterDevice, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.StoreFloat32s(0, vs); err != nil {
		t.Fatal(err)
	}
	afterHost, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if afterDevice.OverheadTime >= afterHost.OverheadTime {
		t.Errorf("post-device-copy overhead %v not below post-host-store %v",
			afterDevice.OverheadTime, afterHost.OverheadTime)
	}
	got, err := dst.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(vs[i]) {
			t.Fatalf("element %d = %v, want %v", i, got[i], vs[i])
		}
	}
	if err := rt.DeviceCopyFloat32s(dst, 4, src, 0, n); err == nil {
		t.Error("overrunning device copy accepted")
	}
}

// TestDeviceCopyRefusesWrappedCounts: an element count whose byte size
// wraps is refused and no byte moves. 4·(2^62+1) wrapped to 4 bytes, which
// passed both span checks, so the copy moved one element and returned nil.
func TestDeviceCopyRefusesWrappedCounts(t *testing.T) {
	rt := multiStackRuntime(t, 2)
	src, err := rt.MemAllocOn(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := rt.MemAllocOn(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := Store(src, 0, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1<<62 + 1, 1<<62 + 4, math.MaxInt} {
		if err := rt.DeviceCopyFloat32s(dst, 0, src, 0, n); err == nil {
			t.Errorf("a device copy of %d elements succeeded", n)
		}
	}
	if got, err := Load[float32](dst, 0, 16); err != nil || !slices.Equal(got, make([]float32, 16)) {
		t.Errorf("dst = %v, %v after the refused copies; want zeros", got, err)
	}
}

func TestAccPlanDescriptorOnBadStack(t *testing.T) {
	rt := multiStackRuntime(t, 2)
	d := &descriptor.Descriptor{}
	x, err := rt.MemAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: 4, Alpha: 1, X: x.PA(), Y: x.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if _, err := rt.AccPlanDescriptorOn(2, d); err == nil {
		t.Error("stack 2 of a 2-stack system accepted")
	}
	if _, err := rt.AccPlanDescriptorOn(-1, d); err == nil {
		t.Error("negative stack accepted")
	}
	if _, err := rt.LayerOn(5); err == nil {
		t.Error("LayerOn(5) of a 2-stack system accepted")
	}
	l1, err := rt.LayerOn(1)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Config().HomeStack != 1 {
		t.Errorf("stack-1 layer homed on %d", l1.Config().HomeStack)
	}
}
