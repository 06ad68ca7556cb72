package mealibrt

import (
	"errors"
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/alloc"
	"mealib/internal/analysis/tdlcheck"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/tdl"
	"mealib/internal/telemetry"
	"mealib/internal/units"
	"mealib/internal/vm"
)

// Session is one tenant's view of the runtime: a private buffer namespace
// with a memory quota enforced at MemAlloc, a plan table, per-session
// in-flight and queue bounds (backpressure), and per-tenant accounting
// exported through the metrics registry as session.<name>.*. Sessions are
// what a multi-tenant front end (internal/mealibd) hands each connection;
// the runtime's own top-level surfaces (Runtime.MemAlloc, AccPlan) are the
// same calls on the default tenant, a session named defaultTenant with no
// quota, no bounds and the whole physical space as its namespace.
//
// The ordering rule, for every tenant: once the runtime has accepted a launch
// (Plan.Accept — in flight or queued), any later operation whose bytes
// conflict with it takes effect after it. A store, load, device copy or free
// waits until no accepted launch conflicts with its span and then runs under
// the runtime lock (awaitLocked); Plan.Destroy waits for the plan's own
// launches; another launch by the same tenant queues behind the tenant's
// earlier ones. Operations wait, they do not fail — a server cannot bounce a
// tenant's store because an unrelated tenant's flight happens to be
// executing.

// defaultTenant names the session behind the runtime-level routines.
const defaultTenant = "_default"

// SessionConfig names a tenant and bounds it.
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
	// namespace is what the tenant's descriptors may name besides its own
	// buffers: nothing for a session a caller opened, the whole physical
	// space for the default tenant, whose callers also plan over memory they
	// mapped through the driver themselves. Fixed before the session is used.
	namespace span.Span
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
	s := &Session{
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
	}
	r.mu.Lock()
	r.sessions[s] = struct{}{}
	r.mu.Unlock()
	return s, nil
}

// Name returns the session's tenant name.
func (s *Session) Name() string { return s.cfg.Name }

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
	return s.alloc(0, n, false)
}

// MemAllocOn reserves a buffer on an explicit memory stack. The quota is
// charged in requested bytes and reserved before the driver call, so
// concurrent allocations cannot oversubscribe it.
func (s *Session) MemAllocOn(stack int, n units.Bytes) (*Buffer, error) {
	return s.alloc(stack, n, false)
}

// MemAllocHost reserves a host-backed (non-resident) buffer unconditionally;
// see Runtime.MemAllocHost.
func (s *Session) MemAllocHost(n units.Bytes) (*Buffer, error) {
	return s.alloc(0, n, true)
}

// place maps n bytes and reports whether they ended up host-backed: on the
// requested stack, or — when the caller asks for it, or the request exceeds
// the stack's physical capacity (alloc.ErrTooLarge, a hardware fact no
// amount of freeing cures) — in the host window, for out-of-core execution
// to stage through stack tiles. That needs a staging region; without one
// the request fails with ErrOverCapacity.
func (r *Runtime) place(stack int, n units.Bytes, host bool) (vm.VAddr, phys.Addr, bool, error) {
	if !host {
		va, pa, err := r.driver.AllocDataOn(stack, n)
		if err == nil || !errors.Is(err, alloc.ErrTooLarge) {
			return va, pa, false, err
		}
	}
	if _, staging := r.driver.Staging(); staging == 0 {
		return 0, 0, false, fmt.Errorf("%w: %v needs a host-backed buffer (the data space is %v) and the runtime has no staging region",
			ErrOverCapacity, n, r.cfg.Driver.DataSize)
	}
	va, pa, err := r.driver.AllocHost(n)
	return va, pa, true, err
}

// alloc is the quota-charge/driver-call/rollback sequence behind the
// allocators.
func (s *Session) alloc(stack int, n units.Bytes, host bool) (*Buffer, error) {
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
	va, pa, host, err := r.place(stack, n, host)
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

// MemFree releases a buffer, waiting out every accepted launch still
// touching it before the mapping disappears.
func (s *Session) MemFree(b *Buffer) error {
	if b == nil || b.sess != s {
		return fmt.Errorf("mealibrt: foreign or nil buffer")
	}
	r := s.rt
	sp := span.Span{Addr: b.pa, Bytes: b.size}
	r.mu.Lock()
	if err := s.awaitLocked(span.Span{}, sp); err != nil {
		r.mu.Unlock()
		return err
	}
	if _, ok := s.buffers[b]; !ok {
		r.mu.Unlock()
		return fmt.Errorf("mealibrt: buffer already freed")
	}
	delete(s.buffers, b)
	s.memUsed -= b.size
	s.gMemUsed.Set(int64(s.memUsed))
	if !b.host {
		s.memResident -= b.size
		s.gMemResident.Set(int64(s.memResident))
	}
	// The range may be reallocated: whatever was written there no longer
	// counts as initialized data for the read-before-write verifier, and a
	// plan of the session that names it no longer passes the namespace check
	// it passed at install. Such a plan is stale from here on: the range may
	// be another tenant's before its next launch, and all the launch-time
	// verifier asks is whether somebody initialized it.
	r.initialized.Sub(sp)
	freed := []span.Span{sp}
	for p := range s.plans {
		if span.Overlap(freed, p.writes) || span.Overlap(freed, p.reads) {
			p.stale = p.stale || s.namespaceLocked(p.writes, p.reads) != nil
		}
	}
	r.mu.Unlock()
	return r.driver.Free(b.va)
}

// DeviceCopyFloat32s copies n float32 values from src at srcOff into dst
// at dstOff entirely on the device side — the multi-stack exchange engine
// uses it for stack-to-stack result-segment transfers, whose traffic and
// energy the inter-stack interconnect model prices separately. Unlike a
// host Load/Store round trip, the data never enters the host cache
// hierarchy: the copy marks the destination span initialized for the
// verifier but adds nothing to the coherence model's dirty estimate, so
// the next launch does not pay wbinvd for it. Both buffers must be the
// session's and stack-resident; the ranges are checked and ordered against
// accepted launches exactly as a load of src and a store to dst are.
func (s *Session) DeviceCopyFloat32s(dst *Buffer, dstOff units.Bytes, src *Buffer, srcOff units.Bytes, n int) error {
	if dst == nil || src == nil || dst.sess != s || src.sess != s {
		return fmt.Errorf("mealibrt: device copy takes two buffers of one session")
	}
	if !dst.Resident() || !src.Resident() {
		return fmt.Errorf("mealibrt: device copy needs stack-resident buffers")
	}
	size, err := ElemBytes[float32](n)
	if err != nil {
		return err
	}
	from, err := src.span(srcOff, size)
	if err != nil {
		return err
	}
	to, err := dst.span(dstOff, size)
	if err != nil {
		return err
	}
	r := s.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := s.awaitLocked(from, to); err != nil {
		return err
	}
	in, err := r.space.ViewBytes(from.Addr, int(from.Bytes))
	if err != nil {
		return err
	}
	out, err := r.space.ViewBytes(to.Addr, int(to.Bytes))
	if err != nil {
		return err
	}
	copy(out, in)
	r.initialized.Add(to)
	return nil
}

// awaitLocked is where a host operation obeys the ordering rule: it returns
// once no launch the runtime has accepted conflicts with reading rd and
// writing wr (a zero span stands for "nothing"), with mu held throughout the
// return, so the caller's operation and the next Accept are ordered too.
// Called with mu held; the wait releases it.
func (s *Session) awaitLocked(rd, wr span.Span) error {
	r := s.rt
	for {
		if s.closed {
			return ErrSessionClosed
		}
		if !r.spanBusyLocked(rd, wr) {
			return nil
		}
		r.cond.Wait()
	}
}

// spanBusyLocked reports whether a descriptor the runtime has accepted — in
// flight, or queued for admission — conflicts with a host operation that reads
// rd and writes wr (a zero span stands for "nothing"). Queued submissions count
// because their place in the schedule is already fixed; a host access (or a
// free) slipping in ahead of one would invert the order the tenant expressed.
// Called with mu held.
func (r *Runtime) spanBusyLocked(rd, wr span.Span) bool {
	rds, wrs := []span.Span{rd}, []span.Span{wr}
	for _, l := range r.launches {
		if span.Conflict(wrs, rds, l.p.admWrites, l.p.reads) {
			return true
		}
	}
	return false
}

// AccPlan compiles a TDL program into a plan owned by the session (see
// Runtime.AccPlan).
func (s *Session) AccPlan(tdlSrc string, params map[string]descriptor.Params) (*Plan, error) {
	prog, err := tdl.Parse(tdlSrc)
	if err != nil {
		return nil, err
	}
	// The program compiles once and installs like any other descriptor: the
	// plan lowering fuses its producer→consumer passes, and the install's one
	// verification names its failures by TDL source line.
	d, err := tdl.Compile(prog, tdl.MapResolver(params))
	if err != nil {
		return nil, err
	}
	return s.install(0, d, prog)
}

// AccPlanDescriptor installs an already-built descriptor as a session plan.
// On top of the static verifier, the descriptor's whole footprint must lie
// inside the session's namespace — one tenant's descriptors cannot name
// another tenant's memory, however well-formed they are.
func (s *Session) AccPlanDescriptor(d *descriptor.Descriptor) (*Plan, error) {
	return s.AccPlanDescriptorOn(0, d)
}

// AccPlanDescriptorOn is AccPlanDescriptor for a plan that launches on the
// given memory stack's accelerator layer (see Runtime.AccPlanDescriptorOn).
func (s *Session) AccPlanDescriptorOn(stack int, d *descriptor.Descriptor) (*Plan, error) {
	return s.install(stack, d, nil)
}

// install is AccPlanDescriptorOn, with the TDL program the descriptor was
// compiled from (or nil) to name its verifier failures by source line.
func (s *Session) install(stack int, d *descriptor.Descriptor, src *tdl.Program) (*Plan, error) {
	r := s.rt
	if _, err := r.LayerOn(stack); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("mealibrt: nil descriptor")
	}
	// What is verified here, compiled below and launched later is the plan's
	// own copy: the caller keeps its descriptor and may do with it what it
	// likes. AccPlan's descriptor needs the copy too: tdl.Compile puts the
	// resolver's parameter blocks in it as they are, and those are the
	// caller's params slices.
	d = d.Clone()
	// One reading by the verifier: the verdict, the footprint everything
	// below and every launch to come is judged by, and the pass structure
	// the plan keeps (nothing parses the descriptor again).
	fp, err := tdlcheck.Check(d)
	if err != nil {
		return nil, fmt.Errorf("mealibrt: descriptor rejected by the static verifier: %w", tdlcheck.AtLines(err, src))
	}
	writes, reads := fp.Writes, fp.Reads
	if err := s.checkNamespace(writes, reads); err != nil {
		return nil, err
	}
	// Residency split: a descriptor naming host-backed spans cannot execute
	// directly (the accelerators cannot reach host DRAM) — lower it into a
	// chunked staged schedule here, at plan time, so Submit replays the
	// same deterministic schedule on every execution.
	var sched *accel.OOCSchedule
	admWrites := writes
	if r.oocSpans(writes) || r.oocSpans(reads) {
		if stack != 0 {
			return nil, fmt.Errorf("mealibrt: out-of-core plans must launch on stack 0, not %d", stack)
		}
		stagingPA, stagingSize := r.driver.Staging()
		if stagingSize == 0 {
			return nil, fmt.Errorf("%w: descriptor names host-backed buffers and the runtime has no staging region", ErrOverCapacity)
		}
		half := stagingSize / 2
		sched, err = r.layers[0].PlanOOC(d, r.driver.InHostWindow,
			[2]phys.Addr{stagingPA, stagingPA + phys.Addr(half)}, half)
		if err != nil {
			return nil, err
		}
		admWrites = append([]span.Span{{Addr: stagingPA, Bytes: stagingSize}}, writes...)
	}
	// An out-of-core plan's command slot holds one chunk descriptor at a
	// time (the largest sizes it); an ordinary plan's holds the descriptor,
	// compiled here, once, for every launch to come.
	cmdBytes := d.Size()
	var prog *accel.Program
	if sched != nil {
		cmdBytes = sched.MaxDescBytes
	} else if prog, err = r.layers[stack].Compile(d); err != nil {
		return nil, err
	}
	va, pa, err := r.driver.AllocCommand(cmdBytes)
	if err != nil {
		return nil, err
	}
	var slot []byte
	if prog != nil {
		if err = prog.Install(r.space, pa); err == nil {
			slot, err = r.space.ViewBytes(pa, descriptor.SlotBytes)
		}
		if err != nil {
			_ = r.driver.Free(va)
			return nil, err
		}
	}
	p := &Plan{rt: r, desc: d, descSize: d.Size(), scopes: fp.Scopes, prog: prog, baseVA: va, basePA: pa, slot: slot,
		writes: writes, reads: reads, exposed: fp.Exposed,
		admWrites: admWrites, ooc: sched, sess: s, stack: stack}
	if sched != nil {
		p.price = r.priceOOC(sched)
	}
	r.mu.Lock()
	s.plans[p] = struct{}{}
	r.mu.Unlock()
	return p, nil
}

// ownsSpanLocked reports whether the span lies inside the session's
// namespace or inside one of its buffers.
func (s *Session) ownsSpanLocked(sp span.Span) bool {
	within := func(outer span.Span) bool {
		return outer.Bytes > 0 && sp.Addr >= outer.Addr && sp.End() <= outer.End()
	}
	if within(s.namespace) {
		return true
	}
	for b := range s.buffers {
		if within(span.Span{Addr: b.pa, Bytes: b.size}) {
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
	return s.namespaceLocked(writes, reads)
}

// namespaceLocked is the namespace predicate: nil when every span lies inside
// the session's namespace or one of its live buffers. A plan passes it at
// install and is launchable for as long as it would pass it again
// (Session.MemFree). Called with mu held.
func (s *Session) namespaceLocked(writes, reads []span.Span) error {
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
	delete(r.sessions, s)
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
