package mealibrt

import (
	"context"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// TestIdleWindowsAdd pins the interval-union semantics the flight-aware
// idle accounting rests on: overlapping windows bill only their uncovered
// portion, disjoint windows bill in full, and the set stays merged.
func TestIdleWindowsAdd(t *testing.T) {
	var w idleWindows
	if got := w.add(0, 10); !units.CloseTo(float64(got), 10) {
		t.Fatalf("first window billed %v, want 10", got)
	}
	// Identical overlap: nothing new.
	if got := w.add(0, 10); !units.CloseTo(float64(got), 0) {
		t.Fatalf("identical window billed %v, want 0", got)
	}
	// Partial overlap: only the extension bills.
	if got := w.add(5, 15); !units.CloseTo(float64(got), 5) {
		t.Fatalf("extension billed %v, want 5", got)
	}
	// Adjacent window: bills in full, merges.
	if got := w.add(15, 20); !units.CloseTo(float64(got), 5) {
		t.Fatalf("adjacent window billed %v, want 5", got)
	}
	if len(w.ivls) != 1 {
		t.Fatalf("windows did not merge: %v", w.ivls)
	}
	// Disjoint later window: bills in full, second interval.
	if got := w.add(30, 35); !units.CloseTo(float64(got), 5) {
		t.Fatalf("disjoint window billed %v, want 5", got)
	}
	if len(w.ivls) != 2 {
		t.Fatalf("expected two intervals, got %v", w.ivls)
	}
	// A window spanning the gap bills only the gap and re-merges all.
	if got := w.add(10, 40); !units.CloseTo(float64(got), 15) {
		t.Fatalf("gap-spanning window billed %v, want 15 (gap 20..30 plus 35..40)", got)
	}
	if len(w.ivls) != 1 || !units.CloseTo(float64(w.ivls[0].start), 0) || !units.CloseTo(float64(w.ivls[0].end), 40) {
		t.Fatalf("final set = %v, want [0,40)", w.ivls)
	}
	// Degenerate windows are free.
	if got := w.add(50, 50); got != 0 {
		t.Fatalf("empty window billed %v", got)
	}
	// A window before everything is inserted in front, in order.
	w.add(60, 70)
	if got := w.add(-10, -5); !units.CloseTo(float64(got), 5) {
		t.Fatalf("leading window billed %v, want 5", got)
	}
	if len(w.ivls) != 3 || w.ivls[0].end > w.ivls[1].start || w.ivls[1].end > w.ivls[2].start {
		t.Fatalf("set out of order after a front insert: %v", w.ivls)
	}
}

// TestIdleWindowsAddSteadyStateAllocs pins the retire path's steady state:
// a serial flight starts where the last one ended, so its window extends
// the set's one element in place.
func TestIdleWindowsAddSteadyStateAllocs(t *testing.T) {
	var w idleWindows
	w.add(0, 1)
	at := units.Seconds(1)
	allocs := testing.AllocsPerRun(100, func() {
		if got := w.add(at, at+1); !units.CloseTo(float64(got), 1) {
			t.Fatalf("serial window at %v billed %v, want 1", at, got)
		}
		at++
	})
	if allocs != 0 {
		t.Fatalf("extending the last window allocates %v times per retire, want 0", allocs)
	}
	if len(w.ivls) != 1 {
		t.Fatalf("serial windows did not stay merged: %v", w.ivls)
	}
}

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
