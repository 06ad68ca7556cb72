package mealibrt

import (
	"context"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// loopAxpyPlan builds a LOOP{iters} x PASS{AXPY n} plan over fresh disjoint
// buffers — big enough that its flight stays in the air for milliseconds of
// wall time, which the overlap test below relies on.
func loopAxpyPlan(t *testing.T, r *Runtime, n, iters int64) *Plan {
	t.Helper()
	x, err := r.MemAlloc(units.Bytes(4 * n * iters))
	if err != nil {
		t.Fatal(err)
	}
	y, err := r.MemAlloc(units.Bytes(4 * n * iters))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float32, n*iters)
	for i := range buf {
		buf[i] = float32(i%13) * 0.5
	}
	if err := x.StoreFloat32s(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, buf); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(uint32(iters)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 0.25, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
		LoopStrideX: accel.Lin(4 * n), LoopStrideY: accel.Lin(4 * n),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	p, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSubmitOverlappedIdleEnergySplit is the regression test for the
// flight-aware idle-energy fix: two overlapping launches of identical work
// must split the shared host-idle window (union billing: one flight's
// worth), while running the same two launches serially bills their sum.
// Before the fix each overlapped flight billed its full span, so the
// overlapped total equalled the serial total.
func TestSubmitOverlappedIdleEnergySplit(t *testing.T) {
	const n, iters = 4096, 512

	// Serial: Execute waits for retirement, so the windows are disjoint
	// and each flight bills its full span.
	rs, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := loopAxpyPlan(t, rs, n, iters), loopAxpyPlan(t, rs, n, iters)
	invA, err := pa.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	invB, err := pb.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	serialIdle := rs.Stats().HostIdleEnergy
	if !units.CloseTo(float64(serialIdle), float64(invA.HostIdleEnergy+invB.HostIdleEnergy)) {
		t.Fatalf("serial stats idle %v != invocation sum %v", serialIdle, invA.HostIdleEnergy+invB.HostIdleEnergy)
	}
	if serialIdle <= 0 {
		t.Fatalf("serial idle energy %v, want > 0", serialIdle)
	}

	// Overlapped: disjoint spans admit concurrently at the same model-time
	// frontier. Both launches are accepted, and so admitted, before either
	// starts, so both windows open at the same start whatever the wall
	// clock does.
	ro, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qa, qb := loopAxpyPlan(t, ro, n, iters), loopAxpyPlan(t, ro, n, iters)
	la, err := qa.Accept()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := qb.Accept()
	if err != nil {
		t.Fatal(err)
	}
	fa, err := la.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := lb.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ia, err := fa.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ib, err := fb.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	overlapIdle := ro.Stats().HostIdleEnergy
	if !units.CloseTo(float64(overlapIdle), float64(ia.HostIdleEnergy+ib.HostIdleEnergy)) {
		t.Fatalf("overlap stats idle %v != invocation sum %v", overlapIdle, ia.HostIdleEnergy+ib.HostIdleEnergy)
	}
	// Identical work -> identical model spans: the union of two coincident
	// windows is one window, so the overlapped bill is half the serial sum.
	if !units.CloseTo(float64(serialIdle), 2*float64(overlapIdle)) {
		t.Fatalf("overlapped launches billed %v host-idle energy, serial sum %v; want exactly half (shared window split)",
			overlapIdle, serialIdle)
	}
}
