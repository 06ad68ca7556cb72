package mealibrt

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/telemetry"
)

// wantCounts checks the books the registry feeds: the session's in-flight and
// queued counts, the plan's accepted count and the registry's length.
func wantCounts(t *testing.T, step string, r *Runtime, p *Plan, inflight, queued, accepted, registered int) {
	t.Helper()
	st := p.sess.Stats()
	r.mu.Lock()
	acc, reg := p.accepted, len(r.launches)
	r.mu.Unlock()
	if st.Inflight != inflight || st.Queued != queued || acc != accepted || reg != registered {
		t.Errorf("%s: session in flight/queued = %d/%d, plan accepted = %d, registry = %d; want %d/%d, %d, %d",
			step, st.Inflight, st.Queued, acc, reg, inflight, queued, accepted, registered)
	}
}

// A waiter that is cancelled leaves through the same exit as every other
// launch, so the pump runs: the tenant's next queued launch, which conflicts
// with nothing, is admitted at once instead of when some unrelated flight
// happens to retire.
//
// Gate (check.sh): the one launch record.
func TestCancelledWaiterAdmitsTheNextOne(t *testing.T) {
	eachTenant(t, DefaultConfig(), func(t *testing.T, r *Runtime, s *Session) {
		f, x, y := slowAxpyPlan(t, s, 1<<16, 1<<11)
		w2, _, y2 := sessAxpyPlan(t, s, 2, 1<<10)
		lf, err := f.Submit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		// W1 conflicts with F and queues; W2 is disjoint from both and queues
		// behind W1 (per-tenant FIFO).
		l1, err := axpyOver(t, s, x, y, 1<<10, 1).Accept()
		if err != nil {
			t.Fatal(err)
		}
		l2, err := w2.Accept()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Queued; got != 2 {
			t.Fatalf("Queued = %d, want W1 and W2", got)
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := l1.Start(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled W1: got %v, want context.Canceled", err)
		}
		if _, err := l2.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, err := l2.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().Invocations; got != 1 {
			t.Errorf("Invocations = %d when W2 retired, want 1: W2 was admitted by F's retirement, not by W1's departure", got)
		}
		checkAxpy(t, y2, 2, 1<<10)
		if _, err := lf.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
}

// Every accepted launch is started exactly once: a second Start is refused
// and moves no count, and Wait may be repeated.
//
// Gate (check.sh): the one launch record.
func TestLaunchStartsOnce(t *testing.T) {
	r := newRuntime(t)
	p, _, y := axpyPlan(t, r, 3, 1<<10)
	l, err := p.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Start(context.Background()); err == nil {
		t.Error("second Start of one launch: got nil, want an error")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	// Whether or not the flight is already done, this Wait may only report
	// the cancellation or the result, and the next one still collects it.
	if _, err := l.Wait(cancelled); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait: %v", err)
	}
	if inv, err := l.Wait(context.Background()); err != nil || inv == nil {
		t.Fatalf("Wait after a cancelled Wait: %v, %v", inv, err)
	}
	if got := r.Stats().Invocations; got != 1 {
		t.Errorf("Invocations = %d, want 1 (the descriptor must run once)", got)
	}
	wantCounts(t, "after the launch retired", r, p, 0, 0, 0, 0)
	checkAxpy(t, y, 3, 1<<10)
	destroyed := make(chan error, 1)
	go func() { destroyed <- p.Destroy() }()
	select {
	case err := <-destroyed:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Destroy still waits for a launch that has retired")
	}
}

// tellingCtx reports the first time anyone asks why it ended: Start does so
// on its cancellation branch, after the select and before it takes the lock.
type tellingCtx struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (c *tellingCtx) Err() error {
	c.once.Do(func() { close(c.asked) })
	return c.Context.Err()
}

// TestLaunchLifeCycle drives one launch record down every path of its state
// machine and checks the books after each step.
//
// Gate (check.sh): the one launch record.
func TestLaunchLifeCycle(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	const n = 1 << 10

	t.Run("admitted at Accept", func(t *testing.T) {
		r := newRuntime(t)
		p, _, y := axpyPlan(t, r, 3, n)
		l, err := p.Accept()
		if err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "accepted", r, p, 1, 0, 1, 1)
		if _, err := l.Start(bg); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Wait(bg); err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "retired", r, p, 0, 0, 0, 0)
		checkAxpy(t, y, 3, n)
	})

	t.Run("queued then pumped", func(t *testing.T) {
		r := newRuntime(t)
		f, x, y := slowAxpyPlan(t, r.def, 1<<14, 1<<8)
		p := axpyOver(t, r.def, x, y, n, 1)
		lf, err := f.Submit(bg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := p.Accept()
		if err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "accepted behind the flight", r, p, 1, 1, 1, 2)
		if _, err := lf.Wait(bg); err != nil {
			t.Fatal(err)
		}
		// The flight's exit pumped the queue before Wait could return.
		wantCounts(t, "pumped", r, p, 1, 0, 1, 1)
		if _, err := l.Start(cancelled); err != nil {
			t.Fatalf("Start of an admitted launch does not wait, so its context cannot end it: %v", err)
		}
		if _, err := l.Wait(bg); err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "retired", r, p, 0, 0, 0, 0)
	})

	t.Run("cancelled while queued", func(t *testing.T) {
		r := newRuntime(t)
		f, _, y := slowAxpyPlan(t, r.def, 1<<16, 1<<10)
		z := zeroed(t, r.def, n)
		p := axpyOver(t, r.def, y, z, n, 1) // reads what the flight writes, writes its own z
		lf, err := f.Submit(bg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := p.Accept()
		if err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "accepted behind the flight", r, p, 1, 1, 1, 2)
		if _, err := l.Start(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("Start under a cancelled context: got %v, want context.Canceled", err)
		}
		wantCounts(t, "place given back", r, p, 1, 0, 0, 1)
		if _, err := l.Wait(bg); !errors.Is(err, context.Canceled) {
			t.Errorf("Wait on the cancelled launch: got %v, want context.Canceled", err)
		}
		// Nothing accepted names z any more: the store does not wait for F.
		if err := z.StoreFloat32s(0, []float32{5}); err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().Invocations; got != 0 {
			t.Errorf("Invocations = %d when the store into z returned, want 0: it waited for the flight", got)
		}
		if _, err := lf.Wait(bg); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("cancellation racing admission", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.MaxInFlight = 1
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkQuiescent(t, r)
		f, _, _ := slowAxpyPlan(t, r.def, 1<<16, 1<<10)
		p, _, y := axpyPlan(t, r, 3, n) // disjoint from F: only the cap queues it
		lf, err := f.Submit(bg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := p.Accept()
		if err != nil {
			t.Fatal(err)
		}
		inner, cancelInner := context.WithCancel(bg)
		defer cancelInner()
		ctx := &tellingCtx{Context: inner, asked: make(chan struct{})}
		started := make(chan error, 1)
		go func() {
			_, err := l.Start(ctx)
			started <- err
		}()
		waitUntil(t, "Start to wait for admission", func() bool {
			r.mu.Lock()
			defer r.mu.Unlock()
			return l.started
		})
		// With the lock held nobody can admit l: Start wakes on the
		// cancellation alone and stops at the lock. Then the cap goes away and
		// the pump admits l before Start gets to give the place back.
		r.mu.Lock()
		cancelInner()
		select {
		case <-ctx.asked:
		case <-time.After(10 * time.Second):
			r.mu.Unlock()
			t.Fatal("Start did not reach its cancellation branch")
		}
		r.cfg.MaxInFlight = 0
		r.pumpLocked()
		admitted := l.seq != 0
		r.mu.Unlock()
		if !admitted {
			t.Fatal("the pump did not admit the launch: nothing was tested")
		}
		if err := <-started; !errors.Is(err, context.Canceled) {
			t.Fatalf("Start: got %v, want context.Canceled", err)
		}
		wantCounts(t, "flight backed out", r, p, 1, 0, 0, 1)
		if _, err := lf.Wait(bg); err != nil {
			t.Fatal(err)
		}
		if got := r.Stats().Invocations; got != 1 {
			t.Errorf("Invocations = %d, want 1 (the backed-out launch must not run)", got)
		}
		checkAxpy(t, y, 0, n)
	})

	t.Run("rejected by the launch-time verifier", func(t *testing.T) {
		r := newRuntime(t)
		x, err := r.MemAlloc(4 * n) // never written
		if err != nil {
			t.Fatal(err)
		}
		p := axpyOver(t, r.def, x, zeroed(t, r.def, n), n, 1)
		r.mu.Lock()
		before := slices.Clone(r.initialized.All())
		r.mu.Unlock()
		l, err := p.Accept()
		if err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "accepted", r, p, 1, 0, 1, 1)
		if _, err := l.Start(bg); err == nil || !strings.Contains(err.Error(), "launch rejected by the static verifier") {
			t.Fatalf("Start: got %v, want a verifier rejection", err)
		}
		wantCounts(t, "rejected", r, p, 0, 0, 0, 0)
		if _, err := l.Wait(bg); err == nil || !strings.Contains(err.Error(), "static verifier") {
			t.Errorf("Wait on the rejected launch: got %v, want the rejection", err)
		}
		r.mu.Lock()
		after := slices.Clone(r.initialized.All())
		r.mu.Unlock()
		if !slices.Equal(before, after) {
			t.Errorf("a rejected launch changed the initialized set: %v, was %v", after, before)
		}
	})

	t.Run("kernel error", func(t *testing.T) {
		r := newRuntime(t)
		p, x, _ := axpyPlan(t, r, 3, n)
		// The fault: x's mapping disappears behind the runtime's back.
		if err := r.driver.Free(x.VA()); err != nil {
			t.Fatal(err)
		}
		l, err := p.Submit(bg)
		if err != nil {
			t.Fatal(err)
		}
		if inv, err := l.Wait(bg); err == nil || inv != nil {
			t.Fatalf("Wait: got %v, %v; want the kernel's error", inv, err)
		}
		wantCounts(t, "failed", r, p, 0, 0, 0, 0)
		if got := r.Stats().Invocations; got != 0 {
			t.Errorf("Invocations = %d, want 0", got)
		}
	})

	t.Run("queued behind a launch that fails", func(t *testing.T) {
		// First a producer that retires: its first pass writes b and its
		// second reads b into c, and the consumer reads b into d. The consumer
		// waits in admission for the whole flight, so it starts on the model
		// clock no earlier than the producer ends, and leaves what the two
		// leave run one after the other.
		const m = 1 << 16
		pair := func(r *Runtime) (prod, cons *Plan, c, d *Buffer) {
			vals := make([]float32, m)
			for i := range vals {
				vals[i] = float32(i%13) / 4
			}
			a, b := f32s(t, r.def, vals...), f32s(t, r.def, vals...)
			c, d = f32s(t, r.def, vals...), f32s(t, r.def, vals...)
			axpy := func(desc *descriptor.Descriptor, alpha float32, x, y *Buffer) {
				if err := desc.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
					N: m, Alpha: alpha, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
				}.Params()); err != nil {
					t.Fatal(err)
				}
				desc.AddEndPass()
			}
			pd, cd := &descriptor.Descriptor{}, &descriptor.Descriptor{}
			axpy(pd, 2, a, b)
			axpy(pd, 3, b, c)
			axpy(cd, 5, b, d)
			var err error
			if prod, err = r.AccPlanDescriptor(pd); err != nil {
				t.Fatal(err)
			}
			if cons, err = r.AccPlanDescriptor(cd); err != nil {
				t.Fatal(err)
			}
			return prod, cons, c, d
		}
		ref := newRuntime(t)
		refProd, refCons, refC, refD := pair(ref)
		for _, p := range []*Plan{refProd, refCons} {
			if _, err := p.Execute(bg); err != nil {
				t.Fatal(err)
			}
		}
		r := newRuntime(t)
		prod, cons, c, d := pair(r)
		lp, err := prod.Accept()
		if err != nil {
			t.Fatal(err)
		}
		lc, err := cons.Accept()
		if err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "consumer accepted behind the producer", r, cons, 1, 1, 1, 2)
		if _, err := lp.Start(bg); err != nil {
			t.Fatal(err)
		}
		if _, err := lc.Start(bg); err != nil {
			t.Fatal(err)
		}
		inv, err := lp.Wait(bg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lc.Wait(bg); err != nil {
			t.Fatal(err)
		}
		if end := lp.start + inv.Report.Time; lc.start < end {
			t.Errorf("the consumer starts at %v on the model clock, before the producer ends at %v", lc.start, end)
		}
		for _, bufs := range [][2]*Buffer{{c, refC}, {d, refD}} {
			got, err := bufs[0].LoadFloat32s(0, m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bufs[1].LoadFloat32s(0, m)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("[%d] = %v, want %v as the two run one after the other", i, got[i], want[i])
				}
			}
		}

		// Then a producer that fails mid-flight: the consumer stays queued
		// until the producer exits, and then runs on what it wrote.
		cfg := DefaultConfig()
		cfg.Tracer = telemetry.New()
		if r, err = New(cfg); err != nil {
			t.Fatal(err)
		}
		checkQuiescent(t, r)
		fp, x, y := slowAxpyPlan(t, r.def, 1<<16, 1<<11)
		ones := make([]float32, 1<<16)
		for i := range ones {
			ones[i] = 1
		}
		if err := x.StoreFloat32s(0, ones); err != nil {
			t.Fatal(err)
		}
		z := zeroed(t, r.def, n)
		fc := axpyOver(t, r.def, y, z, n, 1) // reads what the producer writes
		if lp, err = fp.Accept(); err != nil {
			t.Fatal(err)
		}
		if lc, err = fc.Accept(); err != nil {
			t.Fatal(err)
		}
		wantCounts(t, "consumer accepted behind the failing producer", r, fc, 1, 1, 1, 2)
		if _, err := lp.Start(bg); err != nil {
			t.Fatal(err)
		}
		// The producer loses its input once it has written y, and fails at
		// its next wave.
		nodes := cfg.Tracer.Metrics().Counter("accel.nodes")
		waitUntil(t, "the producer to run a wave", func() bool { return nodes.Value() > 0 })
		if err := r.driver.Free(x.VA()); err != nil {
			t.Fatal(err)
		}
		if _, err := lp.Wait(bg); err == nil {
			t.Fatal("the producer retired before the fault landed: nothing was tested")
		}
		// Its exit pumped the queue before Wait could return.
		wantCounts(t, "consumer admitted by the producer's exit", r, fc, 1, 0, 1, 1)
		if _, err := lc.Start(bg); err != nil {
			t.Fatal(err)
		}
		if _, err := lc.Wait(bg); err != nil {
			t.Fatalf("consumer behind the failed producer: %v", err)
		}
		wantCounts(t, "consumer retired", r, fc, 0, 0, 0, 0)
		if got := r.Stats().Invocations; got != 1 {
			t.Errorf("Invocations = %d, want 1 (the consumer alone)", got)
		}
		written, err := y.LoadFloat32s(0, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := z.LoadFloat32s(0, n)
		if err != nil {
			t.Fatal(err)
		}
		if written[0] == 0 {
			t.Fatal("the producer wrote nothing before the fault: nothing was tested")
		}
		if !slices.Equal(got, written) {
			t.Errorf("z[:4] = %v, want what the failed producer left in y, %v", got[:4], written[:4])
		}
		if err := r.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// TestLaunchRun: Run is Start and Wait by one caller. A queued launch waits
// for the pump, flies and retires inside Run; under a cancelled context it
// gives its place back, as Start would; and Run is the launch's one Start.
//
// Gate (check.sh): the one-walk install.
func TestLaunchRun(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	const n, iters = 1 << 10, 1 << 8
	r := newRuntime(t)
	f, x, y := slowAxpyPlan(t, r.def, 1<<14, iters)
	filled := func(v float32) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	if err := x.StoreFloat32s(0, filled(1)); err != nil {
		t.Fatal(err)
	}
	// Both read what the flight writes, and each writes a buffer of its own.
	z := zeroed(t, r.def, n)
	p := axpyOver(t, r.def, y, z, n, 1)
	q := axpyOver(t, r.def, y, zeroed(t, r.def, n), n, 1)
	lf, err := f.Submit(bg)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := p.Accept()
	if err != nil {
		t.Fatal(err)
	}
	lq, err := q.Accept()
	if err != nil {
		t.Fatal(err)
	}
	wantCounts(t, "both queued behind the flight", r, p, 1, 2, 1, 3)
	if inv, err := lq.Run(cancelled); inv != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Run of a queued launch under a cancelled context: got %v, %v; want context.Canceled", inv, err)
	}
	wantCounts(t, "one place given back", r, q, 1, 1, 0, 2)
	if _, err := lq.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Errorf("Wait on the cancelled launch: got %v, want context.Canceled", err)
	}
	inv, err := lp.Run(bg)
	if err != nil || inv == nil || inv.Report.Comps != 1 {
		t.Fatalf("Run of a queued launch: got %+v, %v", inv, err)
	}
	// Run returned, so the launch has retired, and it was admitted only once
	// the flight had: z holds what the whole flight left in y.
	wantCounts(t, "retired", r, p, 0, 0, 0, 0)
	got, err := z.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, filled(iters)) {
		t.Errorf("z[:4] = %v after Run, want %d everywhere", got[:4], iters)
	}
	if again, err := lp.Wait(bg); again != inv || err != nil {
		t.Errorf("Wait after Run: got %v, %v; want Run's invocation", again, err)
	}
	if _, err := lp.Run(bg); err == nil {
		t.Error("a second Run of one launch: got nil, want an error")
	}
	if _, err := lp.Start(bg); err == nil {
		t.Error("Start after Run: got nil, want an error")
	}
	if _, err := lf.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Invocations; got != 2 {
		t.Errorf("Invocations = %d, want 2 (the flight, and p once)", got)
	}
}
