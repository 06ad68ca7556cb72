package mealibrt

import (
	"context"
	"math"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	r, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkQuiescent(t, r)
	return r
}

// checkQuiescent ends the test on the runtime's own audit: whatever the test
// did, nothing may be left accepted and every count must balance.
func checkQuiescent(t *testing.T, r *Runtime) {
	t.Cleanup(func() {
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("at the end of the test: %v", err)
		}
	})
}

func TestNewValidatesConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Accel = nil
	if _, err := New(cfg); err == nil {
		t.Error("missing accel config must fail")
	}
	cfg2 := DefaultConfig()
	cfg2.Host = nil
	if _, err := New(cfg2); err == nil {
		t.Error("missing host must fail")
	}
}

func TestMemAllocFree(t *testing.T) {
	r := newRuntime(t)
	b, err := r.MemAlloc(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 64*units.KiB {
		t.Errorf("size = %v", b.Size())
	}
	// CPU writes via VA-backed API; accelerator sees them via PA.
	if err := b.StoreFloat32s(0, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Space().LoadFloat32s(b.PA(), 3)
	if err != nil || got[1] != 2 {
		t.Errorf("accelerator-side view = %v, %v", got, err)
	}
	// Virtual translation must agree.
	pa, err := r.Driver().Translate(b.va)
	if err != nil || pa != b.PA() {
		t.Errorf("Translate(VA) = %v, %v; want %v", pa, err, b.PA())
	}
	if err := r.MemFree(b); err != nil {
		t.Fatal(err)
	}
	if err := r.MemFree(b); err == nil {
		t.Error("double free must fail")
	}
	if err := r.MemFree(nil); err == nil {
		t.Error("nil buffer must fail")
	}
}

func TestAccPlanExecuteDestroy(t *testing.T) {
	r := newRuntime(t)
	n := 512
	x, err := r.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	y, err := r.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i)
		ys[i] = 1
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, ys); err != nil {
		t.Fatal(err)
	}

	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(n), Alpha: 3, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	plan, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := plan.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 1 + 3*float32(i)
		if got[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
	if inv.OverheadTime <= 0 || inv.Report.Time <= 0 {
		t.Errorf("invocation costs: %+v", inv)
	}
	if !units.CloseTo(float64(inv.TotalTime()), float64(inv.OverheadTime+inv.Report.Time)) {
		t.Error("TotalTime must sum components")
	}
	if inv.TotalEnergy() <= inv.Report.Energy {
		t.Error("TotalEnergy must include overhead and idle host")
	}
	if err := plan.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := plan.Destroy(); err == nil {
		t.Error("double destroy must fail")
	}
	st := r.Stats()
	if st.Invocations != 1 || st.AccelTime <= 0 || st.OverheadTime <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAccPlanFromTDL(t *testing.T) {
	r := newRuntime(t)
	n := 64
	buf, err := r.MemAlloc(units.Bytes(8 * n))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]complex64, n)
	data[0] = 1
	if err := buf.StoreComplex64s(0, data); err != nil {
		t.Fatal(err)
	}
	plan, err := r.AccPlan(`PASS { COMP FFT PARAMS "fft.para" }`, map[string]descriptor.Params{
		"fft.para": accel.FFTArgs{N: int64(n), HowMany: 1, Src: buf.PA(), Dst: buf.PA()}.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := buf.LoadComplex64s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if real(v) < 0.999 || real(v) > 1.001 {
			t.Fatalf("fft bin %d = %v, want 1", i, v)
		}
	}
}

func TestPlanReuse(t *testing.T) {
	// The descriptor can be reused to invoke the same accelerators with the
	// same configuration multiple times (paper §3.5).
	r := newRuntime(t)
	n := 16
	x, _ := r.MemAlloc(units.Bytes(4 * n))
	y, _ := r.MemAlloc(units.Bytes(4 * n))
	_ = x.StoreFloat32s(0, make([]float32, n))
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = 1
	}
	_ = x.StoreFloat32s(0, xs)
	_ = y.StoreFloat32s(0, make([]float32, n))
	d := &descriptor.Descriptor{}
	_ = d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: int64(n), Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params())
	d.AddEndPass()
	plan, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := plan.Execute(context.Background()); err != nil {
			t.Fatalf("execution %d: %v", k, err)
		}
	}
	got, _ := y.LoadFloat32s(0, n)
	if got[0] != 3 {
		t.Errorf("y[0] after 3 executions = %v, want 3", got[0])
	}
	if r.Stats().Invocations != 3 {
		t.Errorf("invocations = %d", r.Stats().Invocations)
	}
}

func TestDirtyTrackingLowersSecondFlush(t *testing.T) {
	r := newRuntime(t)
	n := 1 << 20
	x, _ := r.MemAlloc(units.Bytes(4 * n))
	y, _ := r.MemAlloc(units.Bytes(4 * n))
	big := make([]float32, n)
	_ = x.StoreFloat32s(0, big)
	_ = y.StoreFloat32s(0, big)
	d := &descriptor.Descriptor{}
	_ = d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: int64(n), Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params())
	d.AddEndPass()
	plan, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// No host writes since: second flush drains nothing.
	second, err := plan.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if second.OverheadTime >= first.OverheadTime {
		t.Errorf("clean-cache overhead %v not below dirty-cache %v", second.OverheadTime, first.OverheadTime)
	}
}

func TestInvocationOverheadModel(t *testing.T) {
	h := DefaultConfig().Host
	t0, e0 := InvocationOverhead(h, 0, 0, 0)
	t1, e1 := InvocationOverhead(h, 0, 0, 8*units.MiB)
	if t1 <= t0 || e1 <= e0 {
		t.Error("dirtier cache must cost more")
	}
	t2, _ := InvocationOverhead(h, 0, 1*units.MiB, 0)
	if t2 <= t0 {
		t.Error("bigger descriptor must cost more")
	}
	t3, _ := InvocationOverhead(h, units.Millisecond, 0, 0)
	if t3 <= t0 {
		t.Error("setup latency must be charged")
	}
}

func TestLinkOwnershipReturnsAfterExecute(t *testing.T) {
	r := newRuntime(t)
	n := 64
	x, _ := r.MemAlloc(units.Bytes(4 * n))
	y, _ := r.MemAlloc(units.Bytes(4 * n))
	_ = x.StoreFloat32s(0, make([]float32, n))
	_ = y.StoreFloat32s(0, make([]float32, n))
	d := &descriptor.Descriptor{}
	_ = d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: int64(n), Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params())
	d.AddEndPass()
	plan, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Errorf("the DRAM must return to the host after execution: %v", err)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	r := newRuntime(t)
	if r.Layer() == nil || r.cfg.Host == nil {
		t.Error("layer and host must be exposed")
	}
	if r.driver.Stacks() != 1 {
		t.Errorf("default stacks = %d", r.driver.Stacks())
	}
	b, err := r.MemAlloc(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StoreInt32s(0, []int32{1, -2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := Load[int32](b, 0, 3)
	if err != nil || got[1] != -2 {
		t.Errorf("int32 round trip: %v, %v", got, err)
	}
	c, err := b.LoadComplex64s(0, 1)
	if err != nil || len(c) != 1 {
		t.Errorf("complex load: %v, %v", c, err)
	}
}

func TestAccPlanDescriptorErrors(t *testing.T) {
	r := newRuntime(t)
	bad := &descriptor.Descriptor{} // empty: fails validation
	if _, err := r.AccPlanDescriptor(bad); err == nil {
		t.Error("invalid descriptor must fail")
	}
	d := &descriptor.Descriptor{}
	_ = d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 1, IncX: 1, IncY: 1}.Params())
	d.AddEndPass()
	p, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.desc; got == d || got.Disassemble() != d.Disassemble() {
		t.Error("the plan must keep its own copy of the descriptor it was installed from")
	}
	// Exhaust the command space: repeated plans without Destroy.
	for i := 0; i < 1<<16; i++ {
		if _, err := r.AccPlanDescriptor(d); err != nil {
			return // exhaustion surfaced cleanly
		}
	}
	t.Error("command space never exhausted")
}

func TestMemAllocOnInvalidStack(t *testing.T) {
	r := newRuntime(t)
	if _, err := r.MemAllocOn(5, 4*units.KiB); err == nil {
		t.Error("allocation on a missing stack must fail")
	}
	if _, err := r.MemAllocOn(-1, 4*units.KiB); err == nil {
		t.Error("negative stack must fail")
	}
}

// noPanic runs f and turns a panic into a test error.
func noPanic(t *testing.T, f func() error) error {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Errorf("panicked: %v", v)
		}
	}()
	return f()
}

// TestTypedLoadsRefuseOverflowingCounts: a count whose byte size does not fit
// is an error, for each typed load. Wrapped, 4·2^62 is 0 bytes, which passed
// the buffer's span check, and the load then asked makeslice for 2^62
// elements.
func TestTypedLoadsRefuseOverflowingCounts(t *testing.T) {
	r := newRuntime(t)
	b, err := r.MemAlloc(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{-1, 1 << 61, 1 << 62, math.MaxInt}
	for _, tc := range []struct {
		name string
		load func(n int) error
	}{
		{"LoadFloat32s", func(n int) error { _, err := b.LoadFloat32s(0, n); return err }},
		{"LoadComplex64s", func(n int) error { _, err := b.LoadComplex64s(0, n); return err }},
		{"LoadInt32s", func(n int) error { _, err := Load[int32](b, 0, n); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, n := range counts {
				if err := noPanic(t, func() error { return tc.load(n) }); err == nil {
					t.Errorf("a load of %d elements succeeded", n)
				}
			}
			if err := tc.load(8); err != nil {
				t.Errorf("a load of 8 elements: %v", err)
			}
		})
	}
}
