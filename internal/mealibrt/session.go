package mealibrt

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/telemetry"
	"mealib/internal/units"
	"mealib/internal/vm"
)

// Session is one tenant's view of the runtime: a private buffer namespace
// with a memory quota enforced at MemAlloc, a plan table, per-session
// in-flight and queue bounds (backpressure), and per-tenant accounting
// exported through the metrics registry as session.<name>.*. Sessions are
// what a multi-tenant front end (internal/mealibd) hands each connection;
// the runtime's own top-level surfaces (Runtime.MemAlloc, AccPlan) keep
// their original single-tenant semantics untouched.
//
// Host accesses through session buffers differ from the legacy path: where
// a sessionless Buffer store fails fast when the link controller has handed
// DRAM to the accelerators, a session store waits until no in-flight
// descriptor conflicts with the touched span and then runs under the
// runtime lock — a server cannot bounce a tenant's store because an
// unrelated tenant's flight happens to be executing.
type SessionConfig struct {
	// Name identifies the tenant in metrics, stats and the admission hook.
	Name string
	// MemQuota caps the session's total live MemAlloc bytes (0 = unlimited).
	MemQuota units.Bytes
	// MaxInFlight bounds the session's concurrently executing descriptors
	// (0 = unlimited). Submissions past the bound queue for admission.
	MaxInFlight int
	// MaxQueued bounds the submissions waiting in admission once MaxInFlight
	// is reached (0 = unlimited). Past it, Submit fails with ErrQueueFull.
	MaxQueued int
}

// SessionStats is a point-in-time snapshot of one tenant's accounting.
type SessionStats struct {
	Submits     int64
	Invocations int64
	Stalls      int64
	QueueFull   int64
	QuotaDenied int64
	MemUsed     units.Bytes
	MemQuota    units.Bytes
	// ResidentBytes is the portion of MemUsed living in stack memory;
	// VirtualBytes is the total live footprint including host-backed
	// (out-of-core) buffers. VirtualBytes == MemUsed: the quota bounds the
	// tenant's whole footprint, resident or not.
	ResidentBytes units.Bytes
	VirtualBytes  units.Bytes
	Inflight      int
	Queued        int
	AccelTime     units.Seconds
	BytesMoved    units.Bytes
	BytesElided   units.Bytes
}

// Session is one tenant. All mutable state is guarded by the runtime's mu.
type Session struct {
	rt  *Runtime
	cfg SessionConfig
	// guarded by rt.mu:
	closed bool
	// memUsed is the tenant's total live footprint (what the quota bounds);
	// memResident the stack-resident portion of it.
	memUsed     units.Bytes
	memResident units.Bytes
	buffers     map[*Buffer]struct{}
	plans       map[*Plan]struct{}
	inflight    int
	queued      int
	stats       SessionStats
	// metrics handles (nil-safe when telemetry is disabled):
	mSubmits, mStalls, mQueueFull, mQuotaDenied *telemetry.Counter
	gMemUsed, gMemResident, gInflight           *telemetry.Gauge
}

// NewSession opens a tenant session. Names need not be unique, but tenants
// sharing a name also share fair-admission round-robin slots and metric
// series.
func (r *Runtime) NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("mealibrt: session config needs a name")
	}
	reg := r.tr.Metrics()
	pre := "session." + cfg.Name + "."
	return &Session{
		rt:           r,
		cfg:          cfg,
		buffers:      make(map[*Buffer]struct{}),
		plans:        make(map[*Plan]struct{}),
		mSubmits:     reg.Counter(pre + "submits"),
		mStalls:      reg.Counter(pre + "admission_stalls"),
		mQueueFull:   reg.Counter(pre + "queue_full"),
		mQuotaDenied: reg.Counter(pre + "quota_denied"),
		gMemUsed:     reg.Gauge(pre + "mem_used"),
		gMemResident: reg.Gauge(pre + "mem_resident"),
		gInflight:    reg.Gauge(pre + "inflight"),
	}, nil
}

// Name returns the session's tenant name.
func (s *Session) Name() string { return s.cfg.Name }

// Config returns the session's configuration.
func (s *Session) Config() SessionConfig { return s.cfg }

// Stats snapshots the tenant's accounting.
func (s *Session) Stats() SessionStats {
	r := s.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	st := s.stats
	st.MemUsed = s.memUsed
	st.MemQuota = s.cfg.MemQuota
	st.ResidentBytes = s.memResident
	st.VirtualBytes = s.memUsed
	st.Inflight = s.inflight
	st.Queued = s.queued
	return st
}

// MemAlloc reserves a quota-accounted buffer in the session's namespace.
// Requests past the stack's physical capacity fall back to host-backed
// out-of-core buffers when the runtime has a staging region — the quota
// bounds virtual (total) bytes either way.
func (s *Session) MemAlloc(n units.Bytes) (*Buffer, error) {
	return s.MemAllocOn(0, n)
}

// MemAllocOn reserves a buffer on an explicit memory stack. The quota is
// charged in requested bytes and reserved before the driver call, so
// concurrent allocations cannot oversubscribe it.
func (s *Session) MemAllocOn(stack int, n units.Bytes) (*Buffer, error) {
	return s.alloc(n, func(r *Runtime) (vm.VAddr, phys.Addr, bool, error) {
		return r.allocAuto(stack, n)
	})
}

// MemAllocHost reserves a host-backed (non-resident) buffer unconditionally;
// see Runtime.MemAllocHost.
func (s *Session) MemAllocHost(n units.Bytes) (*Buffer, error) {
	return s.alloc(n, func(r *Runtime) (vm.VAddr, phys.Addr, bool, error) {
		if _, staging := r.driver.Staging(); staging == 0 || r.cfg.NoOOC {
			return 0, 0, false, fmt.Errorf("%w: host-backed allocation requires out-of-core execution", ErrOverCapacity)
		}
		va, pa, err := r.driver.AllocHost(n)
		return va, pa, true, err
	})
}

// alloc is the shared quota-charge/driver-call/rollback sequence behind the
// session allocators.
func (s *Session) alloc(n units.Bytes, driverAlloc func(*Runtime) (vm.VAddr, phys.Addr, bool, error)) (*Buffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mealibrt: non-positive allocation %d", n)
	}
	r := s.rt
	r.mu.Lock()
	if s.closed {
		r.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if s.cfg.MemQuota > 0 && s.memUsed+n > s.cfg.MemQuota {
		s.stats.QuotaDenied++
		s.mQuotaDenied.Add(1)
		used := s.memUsed
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %d bytes requested, %d of %d in use",
			ErrQuotaExceeded, n, used, s.cfg.MemQuota)
	}
	s.memUsed += n
	s.gMemUsed.Set(int64(s.memUsed))
	r.mu.Unlock()
	va, pa, host, err := driverAlloc(r)
	if err != nil {
		r.mu.Lock()
		s.memUsed -= n
		s.gMemUsed.Set(int64(s.memUsed))
		r.mu.Unlock()
		return nil, err
	}
	b := &Buffer{rt: r, va: va, pa: pa, size: n, sess: s, host: host}
	r.mu.Lock()
	s.buffers[b] = struct{}{}
	if !host {
		s.memResident += n
		s.gMemResident.Set(int64(s.memResident))
	}
	r.mu.Unlock()
	return b, nil
}

// MemFree releases a session buffer, waiting out any in-flight descriptor
// still touching it before the mapping disappears.
func (s *Session) MemFree(b *Buffer) error {
	if b == nil || b.sess != s {
		return fmt.Errorf("mealibrt: foreign or nil buffer")
	}
	r := s.rt
	sp := span.Span{Addr: b.pa, Bytes: b.size}
	r.mu.Lock()
	if _, ok := s.buffers[b]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("mealibrt: buffer already freed")
	}
	for r.spanBusyLocked(sp, true) {
		r.cond.Wait()
	}
	delete(s.buffers, b)
	s.memUsed -= b.size
	s.gMemUsed.Set(int64(s.memUsed))
	if !b.host {
		s.memResident -= b.size
		s.gMemResident.Set(int64(s.memResident))
	}
	// The range may be reallocated: whatever was written there no longer
	// counts as initialized data for the read-before-write verifier.
	r.initialized.Sub(sp)
	r.mu.Unlock()
	return r.driver.Free(b.va)
}

// spanBusyLocked reports whether a descriptor the runtime has accepted —
// in flight, or queued for admission — conflicts with a host access to span:
// any overlap for a host write, writer overlap for a host read. Queued
// submissions count because their place in the schedule is already fixed; a
// host access (or a free) slipping in ahead of one would invert the order
// the tenant expressed. Called with mu held.
func (r *Runtime) spanBusyLocked(sp span.Span, write bool) bool {
	one := []span.Span{sp}
	for _, fl := range r.inflight {
		if span.Overlap(one, fl.writes) {
			return true
		}
		if write && span.Overlap(one, fl.reads) {
			return true
		}
	}
	for _, w := range r.waiters {
		if span.Overlap(one, w.p.admWrites) {
			return true
		}
		if write && span.Overlap(one, w.p.reads) {
			return true
		}
	}
	return false
}

// AccPlan compiles a TDL program into a plan owned by the session (see
// Runtime.AccPlan).
func (s *Session) AccPlan(tdlSrc string, params map[string]descriptor.Params) (*Plan, error) {
	p, err := s.rt.accPlanCommon(tdlSrc, params, s)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// AccPlanDescriptor installs an already-built descriptor as a session plan.
// On top of the static verifier, the descriptor's whole footprint must lie
// inside the session's own buffers — one tenant's descriptors cannot name
// another tenant's memory, however well-formed they are.
func (s *Session) AccPlanDescriptor(d *descriptor.Descriptor) (*Plan, error) {
	return s.rt.accPlanDescriptor(d, s)
}

// ownsSpanLocked reports whether the span lies inside one session buffer.
func (s *Session) ownsSpanLocked(sp span.Span) bool {
	for b := range s.buffers {
		if sp.Addr >= b.pa && sp.Addr+phys.Addr(sp.Bytes) <= b.pa+phys.Addr(b.size) {
			return true
		}
	}
	return false
}

// checkNamespace rejects descriptors whose footprint leaves the session's
// buffers.
func (s *Session) checkNamespace(writes, reads []span.Span) error {
	r := s.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	for _, sp := range writes {
		if !s.ownsSpanLocked(sp) {
			return fmt.Errorf("mealibrt: session %q: descriptor writes %s+%d outside the session's buffers",
				s.cfg.Name, sp.Addr, sp.Bytes)
		}
	}
	for _, sp := range reads {
		if !s.ownsSpanLocked(sp) {
			return fmt.Errorf("mealibrt: session %q: descriptor reads %s+%d outside the session's buffers",
				s.cfg.Name, sp.Addr, sp.Bytes)
		}
	}
	return nil
}

// Close drains the session (its in-flight and queued work completes), then
// releases every remaining plan and buffer. Further operations on the
// session fail with ErrSessionClosed.
func (s *Session) Close() error {
	r := s.rt
	r.mu.Lock()
	if s.closed {
		r.mu.Unlock()
		return ErrSessionClosed
	}
	s.closed = true
	for s.inflight > 0 || s.queued > 0 {
		r.cond.Wait()
	}
	// baseVA is guarded by mu (Destroy and Submit run on different
	// goroutines in the server): capture and zero it here, free outside.
	vas := make([]vm.VAddr, 0, len(s.plans)+len(s.buffers))
	for p := range s.plans {
		if p.baseVA != 0 {
			vas = append(vas, p.baseVA)
			p.baseVA = 0
		}
	}
	for b := range s.buffers {
		vas = append(vas, b.va)
		r.initialized.Sub(span.Span{Addr: b.pa, Bytes: b.size})
	}
	s.plans = make(map[*Plan]struct{})
	s.buffers = make(map[*Buffer]struct{})
	s.memUsed = 0
	s.memResident = 0
	s.gMemUsed.Set(0)
	s.gMemResident.Set(0)
	r.mu.Unlock()
	var firstErr error
	for _, va := range vas {
		if err := r.driver.Free(va); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
