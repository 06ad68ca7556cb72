package mealibrt

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/span"
	"mealib/internal/units"
)

// eachTenant runs f on the runtime's default tenant and on a named session,
// each over a fresh runtime: the ordering rule and the host operations are one
// implementation, and every tenant has to see the same behaviour from it.
func eachTenant(t *testing.T, cfg *Config, f func(t *testing.T, r *Runtime, s *Session)) {
	for _, name := range []string{"default", "session"} {
		t.Run(name, func(t *testing.T) {
			r, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := r.def
			if name == "session" {
				if s, err = r.NewSession(SessionConfig{Name: "tenant-a"}); err != nil {
					t.Fatal(err)
				}
			}
			checkQuiescent(t, r)
			f(t, r, s)
		})
	}
}

// sessAxpyPlan builds an installed single-AXPY plan y += alpha*x over n
// elements (x[i] = i%7, y[i] = 1) in the session's own buffers.
func sessAxpyPlan(t *testing.T, s *Session, alpha float32, n int) (*Plan, *Buffer, *Buffer) {
	t.Helper()
	x, err := s.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 7)
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
		N: int64(n), Alpha: alpha, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := s.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	return p, x, y
}

func TestSessionQuota(t *testing.T) {
	r := newRuntime(t)
	s, err := r.NewSession(SessionConfig{Name: "tenant-a", MemQuota: 1 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := s.MemAlloc(768 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	// 768 KiB + 512 KiB > 1 MiB: the quota must refuse with the typed error.
	if _, err := s.MemAlloc(512 * units.KiB); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota alloc: got %v, want ErrQuotaExceeded", err)
	}
	st := s.Stats()
	if st.QuotaDenied != 1 {
		t.Errorf("QuotaDenied = %d, want 1", st.QuotaDenied)
	}
	if st.MemUsed != 768*units.KiB {
		t.Errorf("MemUsed = %d, want %d (the denied alloc must not leak quota)", st.MemUsed, 768*units.KiB)
	}
	// Freeing returns the quota.
	if err := s.MemFree(b1); err != nil {
		t.Fatal(err)
	}
	b2, err := s.MemAlloc(1 * units.MiB)
	if err != nil {
		t.Fatalf("alloc after free must fit the quota again: %v", err)
	}
	if err := s.MemFree(b2); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MemUsed; got != 0 {
		t.Errorf("MemUsed after frees = %d, want 0", got)
	}
}

func TestSessionNamespace(t *testing.T) {
	r := newRuntime(t)
	s, err := r.NewSession(SessionConfig{Name: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	// A runtime-level buffer is outside every session's namespace.
	foreign, err := r.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	if err := foreign.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	own, err := s.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	if err := own.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 1, X: own.PA(), Y: foreign.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if _, err := s.AccPlanDescriptor(d); err == nil {
		t.Fatal("a descriptor writing another tenant's memory must be rejected")
	}
	// The same shape entirely inside the session passes.
	p, _, y := sessAxpyPlan(t, s, 2, n)
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAxpy(t, y, 2, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.MemAlloc(4 * units.KiB); !errors.Is(err, ErrSessionClosed) {
		t.Errorf("alloc on closed session: got %v, want ErrSessionClosed", err)
	}
}

// axpyOver installs y += x over n elements of the two buffers, looped iters
// times when iters > 1.
func axpyOver(t *testing.T, s *Session, x, y *Buffer, n, iters int) *Plan {
	t.Helper()
	d := &descriptor.Descriptor{}
	if iters > 1 {
		if err := d.AddLoop(uint32(iters)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(n), Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if iters > 1 {
		d.AddEndLoop()
	}
	p, err := s.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// zeroed allocates n zeroed float32 elements in the session.
func zeroed(t *testing.T, s *Session, n int) *Buffer {
	t.Helper()
	b, err := s.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	return b
}

// slowAxpyPlan builds a hardware-loop AXPY (alpha 1 over zeroed x and y) big
// enough to stay in flight for a while (wall-clock), so tests can observe the
// runtime mid-flight.
func slowAxpyPlan(t *testing.T, s *Session, n, iters int) (*Plan, *Buffer, *Buffer) {
	t.Helper()
	x, y := zeroed(t, s, n), zeroed(t, s, n)
	return axpyOver(t, s, x, y, n, iters), x, y
}

// waitUntil polls cond every millisecond until it holds or ~10s of polling
// elapse. A bounded attempt count keeps wall-clock reads out of the
// deterministic simulator packages.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for attempt := 0; attempt < 10000; attempt++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestSessionBackpressure(t *testing.T) {
	r := newRuntime(t)
	s, err := r.NewSession(SessionConfig{Name: "tenant-a", MaxInFlight: 1, MaxQueued: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 12
	p1, _, y1 := sessAxpyPlan(t, s, 2, n)
	p2, _, y2 := sessAxpyPlan(t, s, 3, n)
	p3, _, _ := sessAxpyPlan(t, s, 4, n)

	// A slow looped AXPY (alpha=0: data unchanged) over its own session
	// buffers holds the session's single in-flight slot while p2 queues
	// behind the cap — p1..p3 use disjoint buffers, so the only conflict is
	// MaxInFlight itself.
	xs, err := s.MemAlloc(units.Bytes(4 << 16))
	if err != nil {
		t.Fatal(err)
	}
	ys, err := s.MemAlloc(units.Bytes(4 << 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := xs.StoreFloat32s(0, make([]float32, 1<<16)); err != nil {
		t.Fatal(err)
	}
	if err := ys.StoreFloat32s(0, make([]float32, 1<<16)); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(1 << 10); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: 1 << 16, Alpha: 0, X: xs.PA(), Y: ys.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	pSlow, err := s.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}

	fSlow, err := pSlow.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// p2 queues behind the session cap.
	var wg sync.WaitGroup
	wg.Add(1)
	var f2 *Launch
	var err2 error
	go func() {
		defer wg.Done()
		f2, err2 = p2.Submit(context.Background())
	}()
	waitUntil(t, "p2 to queue", func() bool { return s.Stats().Queued == 1 })
	// MaxQueued=1 is full: the third submission fails fast with the typed
	// error instead of deepening the backlog.
	if _, err := p3.Submit(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue submit: got %v, want ErrQueueFull", err)
	}
	if got := s.Stats().QueueFull; got != 1 {
		t.Errorf("QueueFull = %d, want 1", got)
	}
	if _, err := fSlow.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err2 != nil {
		t.Fatal(err2)
	}
	if _, err := f2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With the queue drained, the session accepts work again.
	if _, err := p1.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAxpy(t, y1, 2, n)
	checkAxpy(t, y2, 3, n)
	st := s.Stats()
	if st.Inflight != 0 || st.Queued != 0 {
		t.Errorf("Inflight/Queued = %d/%d, want 0/0", st.Inflight, st.Queued)
	}
	if st.Invocations != 3 {
		t.Errorf("Invocations = %d, want 3", st.Invocations)
	}
}

// A submission queued in admission (not yet a flight) must be visible to
// MemFree's conflict wait: freeing a buffer a queued launch reads — letting
// the allocator recycle its range — would have the launch execute against
// whatever lands there once it admits.
func TestMemFreeWaitsForQueuedConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	eachTenant(t, cfg, func(t *testing.T, r *Runtime, s *Session) {
		const n = 1 << 12
		p, x, y := sessAxpyPlan(t, s, 2, n)
		// The blocker holds the single global in-flight slot over disjoint
		// buffers, so p's submission queues without conflicting on data.
		blocker, _, _ := slowAxpyPlan(t, r.def, 1<<16, 1<<11)
		fb, err := blocker.Submit(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			pi, err := p.Submit(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := pi.Wait(context.Background()); err != nil {
				t.Error(err)
			}
		}()
		waitUntil(t, "p to queue", func() bool { return s.Stats().Queued == 1 })
		whole := span.Span{Addr: x.PA(), Bytes: x.Size()}
		r.mu.Lock()
		busy := r.spanBusyLocked(span.Span{}, whole)
		r.mu.Unlock()
		if !busy {
			t.Fatal("queued conflicting submission is invisible to spanBusyLocked: MemFree would release a buffer a queued launch reads")
		}
		// The free must block behind the queued launch and only then release.
		freed := make(chan error, 1)
		go func() { freed <- s.MemFree(x) }()
		if _, err := fb.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		checkAxpy(t, y, 2, n)
		if err := <-freed; err != nil {
			t.Fatal(err)
		}
	})
}

// Freeing a buffer must retire its span from the initialized set: a fresh
// allocation recycling the physical range is virgin memory again, and a
// descriptor reading it before writing must be rejected by the launch-time
// verifier instead of silently reading zeros.
func TestMemFreeClearsInitialized(t *testing.T) {
	eachTenant(t, DefaultConfig(), func(t *testing.T, r *Runtime, s *Session) {
		const n = 64
		x, err := s.MemAlloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.StoreFloat32s(0, make([]float32, n)); err != nil {
			t.Fatal(err)
		}
		whole := span.Span{Addr: x.PA(), Bytes: x.Size()}
		if err := s.MemFree(x); err != nil {
			t.Fatal(err)
		}
		r.mu.Lock()
		var leaked []span.Span
		for _, sp := range r.initialized.All() {
			if sp.Overlaps(whole) {
				leaked = append(leaked, sp)
			}
		}
		r.mu.Unlock()
		if leaked != nil {
			t.Fatalf("freed span %v still counts as initialized: %v", whole, leaked)
		}
		// Behavioral check when the allocator recycles the exact range: reading
		// the fresh buffer without writing it must fail the verifier.
		x2, err := s.MemAlloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		y, err := s.MemAlloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		if err := y.StoreFloat32s(0, make([]float32, n)); err != nil {
			t.Fatal(err)
		}
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: n, Alpha: 1, X: x2.PA(), Y: y.PA(), IncX: 1, IncY: 1,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		p, err := s.AccPlanDescriptor(d)
		if err != nil {
			t.Fatal(err)
		}
		if x2.PA() == whole.Addr {
			if _, err := p.Execute(context.Background()); err == nil {
				t.Fatal("launch reading a recycled never-written range must be rejected")
			}
		}
	})
}

// A context cancellation must free a submission stuck in admission — and only
// abandon the wait, never the flight, when it fires during Wait.
func TestSubmitContextCancellation(t *testing.T) {
	eachTenant(t, DefaultConfig(), testSubmitContextCancellation)
}

func testSubmitContextCancellation(t *testing.T, r *Runtime, s *Session) {
	const n = 1 << 12
	// A slow flight over x,y...
	x, err := s.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 7)
		ys[i] = 1
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, ys); err != nil {
		t.Fatal(err)
	}
	mk := func(alpha float32, iters int) *Plan {
		t.Helper()
		d := &descriptor.Descriptor{}
		if iters > 1 {
			if err := d.AddLoop(uint32(iters)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: int64(n), Alpha: alpha, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		if iters > 1 {
			d.AddEndLoop()
		}
		p, err := s.AccPlanDescriptor(d)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pSlow := mk(0, 1<<13) // alpha=0: y unchanged, but conflicts on y
	pFast := mk(2, 1)

	fSlow, err := pSlow.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// ...blocks a conflicting submission in admission; cancelling the context
	// must release it with ctx.Err, not leave a zombie waiter.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := pFast.Submit(ctx)
		done <- err
	}()
	waitUntil(t, "pFast to queue", func() bool { return s.Stats().Queued == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit: got %v, want context.Canceled", err)
	}
	if got := s.Stats().Queued; got != 0 {
		t.Errorf("Queued after cancellation = %d, want 0 (no zombie waiter)", got)
	}

	// Wait under an already-cancelled context abandons the wait only: a later
	// Wait still collects the flight.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := fSlow.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait: got %v, want context.Canceled", err)
	}
	if _, err := fSlow.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The cancelled submission never launched; resubmitting works and the
	// data is exactly one fast AXPY on top of the (alpha=0) slow flight.
	if _, err := pFast.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkAxpy(t, y, 2, n)
	if got := r.Stats().Invocations; got != 2 {
		t.Errorf("Invocations = %d, want 2 (the cancelled submit must not launch)", got)
	}
}

// Two tenants hammering a MaxInFlight=1 runtime must be admitted round-robin:
// once both streams are queued, admissions strictly alternate instead of one
// tenant's burst winning every wakeup race.
func TestAdmissionFairness(t *testing.T) {
	const perTenant = 6
	var mu sync.Mutex
	var order []string
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	cfg.AdmitHook = func(tenant string) {
		mu.Lock()
		order = append(order, tenant)
		mu.Unlock()
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := r.NewSession(SessionConfig{Name: "tenant-a"})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.NewSession(SessionConfig{Name: "tenant-b"})
	if err != nil {
		t.Fatal(err)
	}
	// The blocker: a long default-tenant flight holding the single in-flight
	// slot while both tenants queue their whole streams.
	blocker, _, _ := slowAxpyPlan(t, r.def, 1<<16, 1<<11)
	fb, err := blocker.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 10
	var wg sync.WaitGroup
	submit := func(s *Session) {
		t.Helper()
		p, _, _ := sessAxpyPlan(t, s, 1, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			pi, err := p.Submit(context.Background())
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := pi.Wait(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < perTenant; i++ {
		submit(sa)
		submit(sb)
	}
	waitUntil(t, "both streams to queue", func() bool {
		return sa.Stats().Queued == perTenant && sb.Stats().Queued == perTenant
	})
	if _, err := fb.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 1+2*perTenant {
		t.Fatalf("admissions = %d, want %d", len(order), 1+2*perTenant)
	}
	if order[0] != defaultTenant {
		t.Fatalf("order[0] = %q, want the blocker's %q", order[0], defaultTenant)
	}
	counts := map[string]int{}
	for i := 1; i < len(order); i++ {
		counts[order[i]]++
		if i >= 2 && order[i] == order[i-1] {
			t.Fatalf("admissions %d and %d both went to %q: %v", i-1, i, order[i], order[1:])
		}
	}
	if counts["tenant-a"] != perTenant || counts["tenant-b"] != perTenant {
		t.Fatalf("per-tenant admissions = %v, want %d each", counts, perTenant)
	}
}

// TestBufferAccessStaysInBounds is the tenant-isolation regression test:
// offsets reach Buffer.Store*/Load* raw from mealibd clients, and before
// the bounds check a store through one tenant's buffer at a negative or
// past-the-end offset landed in the neighbouring buffer with a nil error (a
// device copy still did, at a negative offset, until it took the same check).
// Every out-of-range access must fail and leave both neighbours' bytes as
// they were, on session and on runtime buffers alike.
func TestBufferAccessStaysInBounds(t *testing.T) {
	const size = 4 * units.KiB
	r := newRuntime(t)
	named, err := r.NewSession(SessionConfig{Name: "tenant-a", MemQuota: 4 * size})
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Session{"runtime": r.def, "session": named} {
		t.Run(name, func(t *testing.T) {
			var bufs []*Buffer
			for i := 0; i < 4; i++ {
				b, err := s.MemAlloc(size)
				if err != nil {
					t.Fatal(err)
				}
				bufs = append(bufs, b)
			}
			sort.Slice(bufs, func(i, j int) bool { return bufs[i].PA() < bufs[j].PA() })
			below, mid, above, far := bufs[0], bufs[1], bufs[2], bufs[3]
			ones := make([]int32, size/4)
			for i := range ones {
				ones[i] = 1
			}
			for _, b := range bufs {
				if err := b.StoreInt32s(0, ones); err != nil {
					t.Fatal(err)
				}
			}
			// Offsets from mid that land exactly on a neighbour, plus one
			// that starts inside mid and runs off its end.
			offsets := map[string]units.Bytes{
				"negative":     -units.Bytes(mid.PA() - below.PA()),
				"past the end": units.Bytes(above.PA() - mid.PA()),
				"straddling":   size - 8,
			}
			// Every accessor, 16 bytes each; the device copies move them
			// between mid and far, in range on far's side.
			accessors := map[string]func(off units.Bytes) error{
				"StoreInt32s":     func(off units.Bytes) error { return mid.StoreInt32s(off, []int32{9, 9, 9, 9}) },
				"StoreFloat32s":   func(off units.Bytes) error { return mid.StoreFloat32s(off, []float32{9, 9, 9, 9}) },
				"StoreComplex64s": func(off units.Bytes) error { return mid.StoreComplex64s(off, []complex64{9, 9}) },
				"StoreBytes":      func(off units.Bytes) error { return mid.StoreBytes(off, make([]byte, 16)) },
				"LoadInt32s":      func(off units.Bytes) error { _, err := Load[int32](mid, off, 4); return err },
				"LoadFloat32s":    func(off units.Bytes) error { _, err := mid.LoadFloat32s(off, 4); return err },
				"LoadComplex64s":  func(off units.Bytes) error { _, err := mid.LoadComplex64s(off, 2); return err },
				"LoadBytes":       func(off units.Bytes) error { _, err := mid.LoadBytes(off, 16); return err },
				"DeviceCopy to":   func(off units.Bytes) error { return s.DeviceCopyFloat32s(mid, off, far, size/2, 4) },
				"DeviceCopy from": func(off units.Bytes) error { return s.DeviceCopyFloat32s(far, size/2, mid, off, 4) },
			}
			for what, off := range offsets {
				for name, access := range accessors {
					if err := access(off); err == nil {
						t.Errorf("%s %s at %d succeeded", what, name, off)
					}
				}
			}
			if _, err := Load[int32](mid, 0, -1); err == nil {
				t.Error("LoadInt32s of a negative count succeeded")
			}
			if err := s.DeviceCopyFloat32s(mid, 0, far, 0, -1); err == nil {
				t.Error("device copy of a negative count succeeded")
			}
			for i, b := range bufs {
				got, err := Load[int32](b, 0, len(ones))
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, ones) {
					t.Errorf("buffer %d changed under an out-of-range access through its neighbour", i)
				}
			}
			// The last in-range element is still reachable, by a store and by
			// a device copy between two buffers of the tenant.
			if err := mid.StoreBytes(size-4, []byte{2, 0, 0, 0}); err != nil {
				t.Errorf("in-range store at the buffer's end: %v", err)
			}
			if err := s.DeviceCopyFloat32s(far, size-4, mid, size-4, 1); err != nil {
				t.Errorf("in-range device copy at the buffers' ends: %v", err)
			}
			if got, err := Load[int32](far, size-8, 2); err != nil || got[0] != 1 || got[1] != 2 {
				t.Errorf("far[-2:] = %v, %v after the device copy; want [1 2]", got, err)
			}
		})
	}
}
