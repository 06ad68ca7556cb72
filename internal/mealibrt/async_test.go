package mealibrt

import (
	"context"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// axpyPlan builds an installed single-AXPY plan y += alpha*x over n
// elements on the default tenant, with the inputs written so the launch
// verifier is satisfied.
func axpyPlan(t *testing.T, r *Runtime, alpha float32, n int) (*Plan, *Buffer, *Buffer) {
	t.Helper()
	return sessAxpyPlan(t, r.def, alpha, n)
}

func checkAxpy(t *testing.T, y *Buffer, alpha float32, n int) {
	t.Helper()
	got, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 1 + alpha*float32(i%7)
		if got[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// Two plans over disjoint buffers may be in flight together; both must
// complete with the same results serial execution would produce.
func TestSubmitDisjointFlights(t *testing.T) {
	r := newRuntime(t)
	const n = 1 << 12
	pa, _, ya := axpyPlan(t, r, 3, n)
	pb, _, yb := axpyPlan(t, r, 5, n)

	fa, err := pa.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := pb.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAxpy(t, ya, 3, n)
	checkAxpy(t, yb, 5, n)
	if got := r.Stats().Invocations; got != 2 {
		t.Errorf("Invocations = %d, want 2", got)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Errorf("the DRAM must return to the host after the last flight: %v", err)
	}
}

// Plans that touch the same buffer must not overlap in flight: the second
// Submit is admitted only after the first retires. Under -race this is the
// proof that admission really serialises conflicting descriptors.
func TestSubmitConflictingFlightsSerialize(t *testing.T) {
	r := newRuntime(t)
	const n = 1 << 12
	p1, x, y := axpyPlan(t, r, 2, n)
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(n), Alpha: 4, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p2, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}

	f1, err := p1.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Conflicts on both x (read-write ordering is irrelevant here) and y
	// (write-write): Submit blocks until the first flight drains.
	f2, err := p2.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// y = 1 + 2*(i%7) + 4*(i%7), whichever flight ran first.
	got, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := 1 + 6*float32(i%7)
		if got[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// MaxInFlight=1 forces fully serial flights.
func TestSubmitMaxInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 10
	pa, _, ya := axpyPlan(t, r, 3, n)
	pb, _, yb := axpyPlan(t, r, 5, n)

	fa, err := pa.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fb, err := pb.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAxpy(t, ya, 3, n)
	checkAxpy(t, yb, 5, n)
}

// While a flight is in the air a host operation is ordered, not refused, on
// every tenant: a store elsewhere, an allocation and a plan install go through
// at once, and a store into the flight's bytes lands after it.
func TestHostOpsOrderBehindFlight(t *testing.T) {
	eachTenant(t, DefaultConfig(), func(t *testing.T, r *Runtime, s *Session) {
		slow, x, y := slowAxpyPlan(t, s, 1<<16, 1<<11)
		other, err := s.MemAlloc(4 * units.KiB)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := slow.Submit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := other.StoreFloat32s(0, []float32{7}); err != nil {
			t.Errorf("disjoint store mid-flight: %v", err)
		}
		if _, err := x.LoadFloat32s(0, 1); err != nil {
			t.Errorf("load of the flight's input mid-flight: %v", err)
		}
		fresh, err := s.MemAlloc(4 * units.KiB)
		if err != nil {
			t.Errorf("allocation mid-flight: %v", err)
		} else if err := s.MemFree(fresh); err != nil {
			t.Errorf("free of an untouched buffer mid-flight: %v", err)
		}
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: 1, Alpha: 1, X: other.PA(), Y: other.PA() + 4, IncX: 1, IncY: 1,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		p, err := s.AccPlanDescriptor(d)
		if err != nil {
			t.Errorf("planning mid-flight: %v", err)
		} else if err := p.Destroy(); err != nil {
			t.Errorf("destroy of an idle plan mid-flight: %v", err)
		}
		if r.CheckInvariants() == nil {
			t.Fatal("the flight drained before the host operations ran: nothing was tested")
		}
		// The conflicting store returns only once the flight has retired.
		if err := y.StoreFloat32s(0, []float32{9}); err != nil {
			t.Fatalf("store into the flight's output: %v", err)
		}
		if got := r.Stats().Invocations; got != 1 {
			t.Errorf("Invocations = %d when the conflicting store returned, want 1 (it must wait for the flight)", got)
		}
		if _, err := pi.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, err := y.LoadFloat32s(0, 2); err != nil || got[0] != 9 || got[1] != 0 {
			t.Errorf("y[0:2] = %v, %v; want [9 0]", got, err)
		}
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("the DRAM must return to the host after the flight: %v", err)
		}
	})
}

// A plan destroyed with its own launch in the air: Destroy waits the flight
// out instead of freeing command space the flight is decoding, and the
// launch still completes with the right bytes.
func TestDestroyWaitsForOwnFlight(t *testing.T) {
	eachTenant(t, DefaultConfig(), func(t *testing.T, r *Runtime, s *Session) {
		const n, iters = 1 << 14, 1 << 9
		slow, x, y := slowAxpyPlan(t, s, n, iters)
		ones := make([]float32, n)
		for i := range ones {
			ones[i] = 1
		}
		if err := x.StoreFloat32s(0, ones); err != nil {
			t.Fatal(err)
		}
		pi, err := slow.Submit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := slow.Destroy(); err != nil {
			t.Fatalf("destroy of a plan with its launch in flight: %v", err)
		}
		if got := r.Stats().Invocations; got != 1 {
			t.Errorf("Invocations = %d when Destroy returned, want 1 (it must wait for the flight)", got)
		}
		if _, err := pi.Wait(context.Background()); err != nil {
			t.Fatalf("wait after destroy: %v", err)
		}
		got, err := y.LoadFloat32s(0, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != iters {
				t.Fatalf("y[%d] = %v, want %d", i, v, iters)
			}
		}
		if _, err := slow.Submit(context.Background()); err == nil {
			t.Error("submit of a destroyed plan must fail")
		}
	})
}

// One goroutine launches an AXPY into y over and over while another stores
// into y: every store succeeds, and each store and each launch takes effect
// whole — y ends as the last store plus a whole number of launches.
func TestStoreRacesExecute(t *testing.T) {
	eachTenant(t, DefaultConfig(), func(t *testing.T, r *Runtime, s *Session) {
		const n, launches = 1 << 14, 40
		p, _, y := sessAxpyPlan(t, s, 1, n) // x[i] = i%7, y[i] = 1
		ones := make([]float32, n)
		for i := range ones {
			ones[i] = 1
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for k := 0; k < launches; k++ {
				if _, err := p.Execute(context.Background()); err != nil {
					t.Errorf("launch %d: %v", k, err)
					return
				}
			}
		}()
		for stores, running := 0, true; running; stores++ {
			select {
			case <-done:
				running = false
			default:
			}
			if err := y.StoreFloat32s(0, ones); err != nil {
				t.Fatalf("store %d: %v", stores, err)
			}
		}
		<-done
		got, err := y.LoadFloat32s(0, n)
		if err != nil {
			t.Fatal(err)
		}
		// y[i] = 1 + j*(i%7) for one j: the launches since the last store.
		j := got[1] - 1
		if j < 0 || j > launches || j != float32(int(j)) {
			t.Fatalf("y[1] = %v: not 1 plus a whole number of launches", got[1])
		}
		for i, v := range got {
			if want := 1 + j*float32(i%7); v != want {
				t.Fatalf("y[%d] = %v, want %v (%v launches since the last store): a store landed inside a launch", i, v, want, j)
			}
		}
	})
}
