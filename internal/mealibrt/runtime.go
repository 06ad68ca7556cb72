// Package mealibrt implements the MEALib runtime routines of paper §3.5:
// the memory management runtime (mealib_mem_alloc / mealib_mem_free, backed
// by the device driver's physically contiguous data space) and the
// accelerator control runtime (mealib_acc_plan / mealib_acc_execute /
// mealib_acc_destroy, which build accelerator descriptors from TDL, place
// them in the command space, and launch the accelerator layer).
//
// Every accelerator invocation pays the real coherence protocol of §3.5:
// the host writes back dirty cache lines (wbinvd) and copies the descriptor
// before flipping the CR command to START. Those overheads are what
// Figures 12 and 14 measure.
package mealibrt

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mealib/internal/accel"
	"mealib/internal/analysis/tdlcheck"
	"mealib/internal/cpu"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/telemetry"
	"mealib/internal/units"
	"mealib/internal/vm"
)

// Config assembles a MEALib system.
type Config struct {
	// SpaceSize is the physical address space size.
	SpaceSize units.Bytes
	// Driver carve-outs.
	Driver vm.Config
	// Accel is the accelerator-layer configuration.
	Accel *accel.Config
	// Host is the central processor.
	Host *cpu.Host
	// DescriptorSetupLatency is the fixed driver cost of storing a
	// descriptor and ringing the doorbell (user/kernel crossing plus
	// uncached CR write).
	DescriptorSetupLatency units.Seconds
	// MaxInFlight caps the number of descriptors concurrently in flight
	// through Plan.Submit (0 = unlimited). Submissions past the cap block
	// in admission until a flight completes.
	MaxInFlight int
	// NoPrefetch runs out-of-core chunk schedules synchronously — stage in,
	// execute, write back, one chunk at a time — instead of prefetching the
	// next chunk's tiles under the current chunk's execution. Results are
	// bit-identical; only the model-time overlap differs (the differential
	// benchmarks measure exactly this).
	NoPrefetch bool
	// Deprecated: ignored; conflicting launches always wait in admission.
	// Removed together with bench/serve.go's assignment by the next
	// benchmark PR (ROADMAP item 1).
	WavePipeline bool
	// AdmitHook, when non-nil, is invoked with the tenant name at every
	// admission, in admission order, with the runtime lock held. It must
	// not call back into the runtime. Used by fairness tests and the
	// mealibd batcher's observability; nil costs nothing.
	AdmitHook func(tenant string)
	// Tracer, when non-nil, records runtime execution spans (Submit,
	// admission stalls, flights, Wait) and metrics, and propagates into
	// the accelerator layer (launches, waves, nodes) unless the Accel
	// config carries its own tracer. nil disables telemetry at zero
	// hot-path cost.
	Tracer *telemetry.Tracer
}

// DefaultConfig returns the paper's system: a Haswell host in front of one
// accelerated memory stack, with a 1 GiB data space and 16 MiB command
// space carved out of the stack ("local memory stack", §3.3).
func DefaultConfig() *Config {
	return &Config{
		SpaceSize: 8 * units.GiB,
		Driver: vm.Config{
			DataBase: 0x1_0000_0000,
			DataSize: 1 * units.GiB,
			CmdBase:  0x4000_0000,
			CmdSize:  16 * units.MiB,
		},
		Accel:                  accel.MEALibConfig(),
		Host:                   cpu.Haswell(),
		DescriptorSetupLatency: 4 * units.Microsecond,
	}
}

// Runtime is one loaded MEALib runtime instance.
type Runtime struct {
	cfg    *Config
	space  *phys.Space
	driver *vm.Driver
	// layers holds one accelerator layer per memory stack (paper Figure 2:
	// every stack carries its own logic layer). A plan built with
	// AccPlanDescriptorOn(k, …) runs on layers[k], so its accesses to
	// stack-k buffers are local and everything else crosses the inter-stack
	// links. All layers share the one space and the one launch registry — a
	// multi-stack launch is N plans submitted to N layers under the same
	// span-conflict admission.
	layers []*accel.Layer
	// mStackLaunches counts launches routed to each stack's layer.
	mStackLaunches []*telemetry.Counter
	// def is the default tenant: the session behind Runtime.MemAlloc,
	// AccPlan and the other runtime-level routines of §3.5. It has no quota
	// and no caps, and its namespace is the whole physical space.
	def *Session
	// tr records execution spans (nil: telemetry disabled); the handles
	// below are resolved once at New and are themselves concurrency-safe,
	// so none of this needs mu.
	tr        *telemetry.Tracer
	mSubmits  *telemetry.Counter
	mStalls   *telemetry.Counter
	mInflight *telemetry.Gauge
	// out-of-core accounting: staged launches, chunks, and link bytes.
	mOOCLaunches *telemetry.Counter
	mOOCChunks   *telemetry.Counter
	mOOCStaged   *telemetry.Counter
	// cond (bound to mu) wakes whatever waits for accepted work to go away:
	// host operations, Destroy and Session.Close.
	cond *sync.Cond
	// mu guards every field below: the coherence/verification state and
	// the launch registry, shared between the host path and the completion
	// goroutines of submitted plans.
	mu sync.Mutex
	// sessions are the open tenants, the default one included.
	sessions map[*Session]struct{}
	// dirty approximates the modified cache contents since the last flush.
	dirty units.Bytes
	// initialized tracks which data-space spans the host (or a completed
	// descriptor execution) has written, feeding the verifier's
	// read-before-write check at launch time. The sorted interval set keeps
	// it proportional to the number of distinct live regions, however
	// scattered the write history.
	initialized span.Set
	stats       Stats
	// launches is the registry of accepted launches in acceptance order, and
	// the one ledger of which bytes the accelerators own (the link controller
	// of paper §2.1): a record joins it in Accept and leaves through finish.
	// Admission checks a plan's spans against the admitted ones, the pump
	// (admit.go) admits the queued ones round-robin over tenants, and a host
	// operation waits while any of them conflicts with its span. inflight
	// counts the admitted ones for the MaxInFlight cap.
	launches   []*Launch
	inflight   int
	lastTenant string
	// seq numbers launches in admission order.
	seq uint64
	// clock is the model-time frontier: flights start at the current
	// frontier and push it forward as they retire, so the host has been
	// billed idle for exactly [0, clock).
	clock units.Seconds
}

// Stats aggregates invocation accounting across the runtime's lifetime
// (feeds the Figure 14 invocation-share breakdown).
type Stats struct {
	Invocations    int64
	OverheadTime   units.Seconds
	OverheadEnergy units.Joules
	AccelTime      units.Seconds
	AccelEnergy    units.Joules
	// HostIdleEnergy is the blocked host's idle burn across all flights,
	// with each overlapping model-time window billed exactly once.
	HostIdleEnergy units.Joules
}

// New builds a runtime.
func New(cfg *Config) (*Runtime, error) {
	if cfg.Accel == nil || cfg.Host == nil {
		return nil, fmt.Errorf("mealibrt: config missing accelerator or host")
	}
	if err := cfg.Host.Validate(); err != nil {
		return nil, err
	}
	space := phys.NewSpace(cfg.SpaceSize)
	driver, err := vm.NewDriver(space, cfg.Driver)
	if err != nil {
		return nil, err
	}
	// The accelerator layer lives on stack 0 (the Local Memory Stack);
	// buffers on other stacks are remote to it. Copy the configuration so
	// the caller's template is not mutated.
	accelCfg := *cfg.Accel
	if accelCfg.StackOf == nil {
		accelCfg.StackOf = driver.StackOf
		accelCfg.HomeStack = 0
	}
	if accelCfg.Tracer == nil {
		accelCfg.Tracer = cfg.Tracer
	}
	layer, err := accel.NewLayer(&accelCfg)
	if err != nil {
		return nil, err
	}
	rt := &Runtime{cfg: cfg, space: space, driver: driver, layers: []*accel.Layer{layer}, tr: cfg.Tracer,
		sessions: make(map[*Session]struct{})}
	for k := 1; k < driver.Stacks(); k++ {
		// Each remote stack gets its own layer instance homed there; the
		// configs differ only in HomeStack, so every layer prices the same
		// operation identically and only locality differs.
		kCfg := accelCfg
		kCfg.HomeStack = k
		kLayer, err := accel.NewLayer(&kCfg)
		if err != nil {
			return nil, err
		}
		rt.layers = append(rt.layers, kLayer)
	}
	reg := cfg.Tracer.Metrics()
	for k := range rt.layers {
		rt.mStackLaunches = append(rt.mStackLaunches, reg.Counter(fmt.Sprintf("rt.launches.stack%d", k)))
	}
	rt.mSubmits = reg.Counter("rt.submits")
	rt.mStalls = reg.Counter("rt.admission_stalls")
	rt.mInflight = reg.Gauge("rt.inflight")
	rt.mOOCLaunches = reg.Counter("rt.ooc_launches")
	rt.mOOCChunks = reg.Counter("rt.ooc_chunks")
	rt.mOOCStaged = reg.Counter("rt.ooc_staged_bytes")
	rt.cond = sync.NewCond(&rt.mu)
	if rt.def, err = rt.NewSession(SessionConfig{Name: defaultTenant}); err != nil {
		return nil, err
	}
	rt.def.namespace = span.Span{Bytes: cfg.SpaceSize}
	return rt, nil
}

// Space exposes the physical space (accelerator-side addressing).
func (r *Runtime) Space() *phys.Space { return r.space }

// Driver exposes the device driver (host-side addressing).
func (r *Runtime) Driver() *vm.Driver { return r.driver }

// Layer exposes stack 0's accelerator layer.
func (r *Runtime) Layer() *accel.Layer { return r.layers[0] }

// LayerOn exposes the accelerator layer of the given memory stack.
func (r *Runtime) LayerOn(stack int) (*accel.Layer, error) {
	if stack < 0 || stack >= len(r.layers) {
		return nil, fmt.Errorf("mealibrt: no accelerator layer on stack %d (have %d)", stack, len(r.layers))
	}
	return r.layers[stack], nil
}

// Stats returns the accumulated invocation accounting.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// CheckInvariants holds the runtime's books to a scan and returns the first
// disagreement. It is for a quiescent point, where the caller knows that no
// launch is accepted and no call into the runtime is in progress: there a
// record still in the registry is itself a violation, because "the
// accelerators own no DRAM" (paper §2.1) means exactly "nothing is accepted",
// and every count and gauge derived from the registry must read zero. The
// host's idle energy must be that of the one window [0, frontier).
func (r *Runtime) CheckInvariants() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.launches); n > 0 {
		l := r.launches[0]
		return fmt.Errorf("mealibrt: %d launches still accepted; the oldest is tenant %q's (admission seq %d, started %t)",
			n, l.p.tenant(), l.seq, l.started)
	}
	if r.inflight != 0 || r.mInflight.Value() != 0 {
		return fmt.Errorf("mealibrt: empty registry, but %d in flight (gauge rt.inflight %d)", r.inflight, r.mInflight.Value())
	}
	for s := range r.sessions {
		if s.inflight != 0 || s.queued != 0 || s.gInflight.Value() != 0 {
			return fmt.Errorf("mealibrt: empty registry, but session %q counts %d in flight (gauge %d) and %d queued",
				s.cfg.Name, s.inflight, s.gInflight.Value(), s.queued)
		}
		for p := range s.plans {
			if p.accepted != 0 {
				return fmt.Errorf("mealibrt: empty registry, but a plan of session %q counts %d accepted launches", s.cfg.Name, p.accepted)
			}
		}
		var used units.Bytes
		for b := range s.buffers {
			used += b.size
		}
		if used != s.memUsed {
			return fmt.Errorf("mealibrt: session %q holds %d bytes in buffers but is charged %d", s.cfg.Name, used, s.memUsed)
		}
	}
	if want := r.cfg.Host.Wait(r.clock).Energy; !units.CloseTo(float64(r.stats.HostIdleEnergy), float64(want)) {
		return fmt.Errorf("mealibrt: host billed %v idle energy, but idling for [0, %v) of model time costs %v",
			r.stats.HostIdleEnergy, r.clock, want)
	}
	return nil
}

// Tracer exposes the runtime's telemetry tracer (nil when telemetry is
// disabled), so front ends like mealibd can report per-tenant metrics from
// the same registry the runtime feeds.
func (r *Runtime) Tracer() *telemetry.Tracer { return r.tr }

// Buffer is a MemAlloc'ed physically contiguous buffer visible to the CPU
// (virtual address) and the accelerators (physical address).
type Buffer struct {
	rt   *Runtime
	va   vm.VAddr
	pa   phys.Addr
	size units.Bytes
	// sess is the owning tenant: the runtime's default tenant for buffers
	// from Runtime.MemAlloc.
	sess *Session
	// host marks a host-backed (non-resident) buffer: the CPU reaches it
	// normally, but a descriptor naming it is lowered into chunked staged
	// launches (ooc.go) instead of executing directly.
	host bool
}

// PA returns the buffer's physical address (what descriptors carry).
func (b *Buffer) PA() phys.Addr { return b.pa }

// Size returns the requested buffer size.
func (b *Buffer) Size() units.Bytes { return b.size }

// Resident reports whether the buffer lives in stack memory. Host-backed
// (out-of-core) buffers return false: they occupy host DRAM and reach the
// accelerators only through staged chunk launches.
func (b *Buffer) Resident() bool { return !b.host }

// MemAlloc reserves a physically contiguous buffer in the local memory
// stack's data space (mealib_mem_alloc). A request larger than the data
// space itself falls back to a host-backed out-of-core buffer when the
// runtime has a staging region (see Config.Driver.StagingSize); without one
// it fails with ErrOverCapacity.
func (r *Runtime) MemAlloc(n units.Bytes) (*Buffer, error) { return r.def.MemAlloc(n) }

// MemAllocOn reserves a buffer on an explicit memory stack (paper §3.5:
// the allocation's stack can be specified; stack 0 is the accelerators'
// Local Memory Stack, others are Remote Memory Stacks whose traffic
// crosses the inter-stack links).
func (r *Runtime) MemAllocOn(stack int, n units.Bytes) (*Buffer, error) {
	return r.def.MemAllocOn(stack, n)
}

// MemAllocHost reserves a host-backed buffer unconditionally, regardless of
// whether the request would fit stack memory. Useful for keeping cold data
// out of the stack on purpose.
func (r *Runtime) MemAllocHost(n units.Bytes) (*Buffer, error) { return r.def.MemAllocHost(n) }

// MemFree releases a buffer (mealib_mem_free).
func (r *Runtime) MemFree(b *Buffer) error { return r.def.MemFree(b) }

// DeviceCopyFloat32s copies between two buffers of the default tenant on the
// device side (see Session.DeviceCopyFloat32s).
func (r *Runtime) DeviceCopyFloat32s(dst *Buffer, dstOff units.Bytes, src *Buffer, srcOff units.Bytes, n int) error {
	return r.def.DeviceCopyFloat32s(dst, dstOff, src, srcOff, n)
}

// span checks the n bytes at byte offset off against the buffer and returns
// them as a physical range. mealibd passes offsets raw from the client
// frame, and the physical memory on either side of the buffer belongs to
// another tenant.
func (b *Buffer) span(off, n units.Bytes) (span.Span, error) {
	if off < 0 || n < 0 || off > b.size-n {
		return span.Span{}, fmt.Errorf("mealibrt: access to %d bytes at offset %d is outside the %d-byte buffer", n, off, b.size)
	}
	return span.Span{Addr: b.pa + phys.Addr(off), Bytes: n}, nil
}

// ElemBytes is the byte size of n elements of T. A count whose byte size
// does not fit is refused: wrapped, it would pass span and the load would
// then allocate n elements, or a copy would move fewer than n.
func ElemBytes[T phys.Elem](n int) (units.Bytes, error) {
	if size := phys.Size[T](); n < 0 || n > math.MaxInt64/size {
		return 0, fmt.Errorf("mealibrt: access to %d elements of %d bytes overflows the byte count", n, size)
	}
	return units.Bytes(n * phys.Size[T]()), nil
}

// access runs one host-side access to the n bytes at byte offset off: it
// waits until no accepted launch conflicts with the range (the ordering
// rule, Session.awaitLocked) and runs op under the runtime lock, so no
// conflicting launch can be accepted mid-access. A write is recorded for
// the coherence model and the verifier's initialized-span tracking.
func (b *Buffer) access(off, n units.Bytes, write bool, op func(pa phys.Addr) error) error {
	sp, err := b.span(off, n)
	if err != nil {
		return err
	}
	var rd, wr span.Span
	if write {
		wr = sp
	} else {
		rd = sp
	}
	r := b.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := b.sess.awaitLocked(rd, wr); err != nil {
		return err
	}
	if write {
		r.dirty += n
		r.initialized.Add(sp)
	}
	return op(sp.Addr)
}

// StoreBytes writes p at byte offset off through the host mapping, in the
// little-endian element layout every typed accessor uses.
func (b *Buffer) StoreBytes(off units.Bytes, p []byte) error {
	return b.access(off, units.Bytes(len(p)), true, func(pa phys.Addr) error {
		dst, err := b.rt.space.ViewBytes(pa, len(p))
		if err != nil {
			return err
		}
		copy(dst, p)
		return nil
	})
}

// LoadBytes reads a copy of the n bytes at byte offset off.
func (b *Buffer) LoadBytes(off units.Bytes, n int) (out []byte, err error) {
	err = b.access(off, units.Bytes(n), false, func(pa phys.Addr) error {
		src, err := b.rt.space.ViewBytes(pa, n)
		if err != nil {
			return err
		}
		out = append([]byte(nil), src...)
		return nil
	})
	return out, err
}

// Store writes v at byte offset off through the host mapping.
func Store[T phys.Elem](b *Buffer, off units.Bytes, v []T) error {
	return b.access(off, units.Bytes(len(v)*phys.Size[T]()), true, func(pa phys.Addr) error { return phys.Store(b.rt.space, pa, v) })
}

// Load reads n elements at byte offset off.
func Load[T phys.Elem](b *Buffer, off units.Bytes, n int) (out []T, err error) {
	size, err := ElemBytes[T](n)
	if err != nil {
		return nil, err
	}
	err = b.access(off, size, false, func(pa phys.Addr) (e error) { out, e = phys.Load[T](b.rt.space, pa, n); return })
	return out, err
}

// StoreFloat32s is Store[float32].
func (b *Buffer) StoreFloat32s(off units.Bytes, v []float32) error { return Store(b, off, v) }

// LoadFloat32s is Load[float32].
func (b *Buffer) LoadFloat32s(off units.Bytes, n int) ([]float32, error) {
	return Load[float32](b, off, n)
}

// StoreComplex64s is Store[complex64].
func (b *Buffer) StoreComplex64s(off units.Bytes, v []complex64) error { return Store(b, off, v) }

// LoadComplex64s is Load[complex64].
func (b *Buffer) LoadComplex64s(off units.Bytes, n int) ([]complex64, error) {
	return Load[complex64](b, off, n)
}

// StoreInt32s is Store[int32].
func (b *Buffer) StoreInt32s(off units.Bytes, v []int32) error { return Store(b, off, v) }

// Plan is a reusable accelerator descriptor (mealib_acc_plan's acc_plan),
// compiled when it is installed: everything a launch needs that the descriptor
// and the layer decide is fixed here, once, and an Execute is a flush, a
// doorbell and the kernels (paper §3.5).
type Plan struct {
	rt *Runtime
	// desc is the plan's own copy of the descriptor it was installed from and
	// descSize its encoded size (the modelled descriptor copy); nothing the
	// caller does to its descriptor afterwards reaches the plan. Only a
	// launch about to be rejected reads desc again, for the verifier's error.
	desc     *descriptor.Descriptor
	descSize units.Bytes
	// scopes is desc's pass structure, as the install's verifier parsed it.
	scopes []descriptor.Scope
	// prog is desc compiled for the plan's layer, and its image is what the
	// command slot holds (nil for an out-of-core plan, whose chunks carry
	// their own programs).
	prog   *accel.Program
	baseVA vm.VAddr
	basePA phys.Addr
	// slot is a view of the command slot's magic and command words, resolved
	// at install: every doorbell rings through it (nil for an out-of-core
	// plan). The slot is the plan's own mapping until Destroy.
	slot []byte
	// writes are the spans the descriptor's task graph initializes,
	// propagated into the runtime's initialized set after each execution.
	writes []span.Span
	// reads are the spans the task graph consumes; together with writes
	// they drive Submit's conflict admission against in-flight descriptors.
	// exposed are those of them no earlier write of the plan covers
	// (tdlcheck.Footprint.Exposed): all the launch-time verifier still has
	// to ask the initialized set about.
	reads   []span.Span
	exposed []span.Span
	// admWrites is what admission sees as the plan's write set: writes, plus
	// the staging region for out-of-core plans (two staged launches must
	// never share the staging tiles, and host accesses must stay out of a
	// flight's tiles while it runs). retire still propagates only the real
	// writes into the initialized set.
	admWrites []span.Span
	// ooc is the chunked staged schedule of an out-of-core plan — one whose
	// footprint names host-backed buffers — and nil for ordinary plans. An
	// out-of-core plan's original descriptor is never executed: Submit runs
	// the schedule's rebased chunk descriptors instead (ooc.go).
	ooc *accel.OOCSchedule
	// price is an out-of-core plan's report, priced at install (priceOOC).
	price *accel.Report
	// sess is the owning tenant: the runtime's default tenant for plans
	// from Runtime.AccPlan*.
	sess *Session
	// stack selects the accelerator layer the plan launches on (the memory
	// stack whose logic layer executes the descriptor); 0 unless the plan
	// came from AccPlanDescriptorOn.
	stack int
	// accepted counts the plan's launches the runtime has accepted and not
	// yet finished with, queued or in flight (guarded by the runtime's mu).
	// Destroy waits for it to drain: a flight fetches from the plan's command
	// space for as long as it runs.
	accepted int
	// stale marks a plan whose footprint no longer passes the namespace check
	// it passed at install: its session freed a buffer it names (guarded by
	// mu; set by Session.MemFree, never cleared). A stale plan is not
	// launchable.
	stale bool
}

// AccPlan compiles a TDL program against the parameter table and encodes
// the resulting descriptor into the command space (mealib_acc_plan). The
// program is statically verified first: dangling parameter references, bad
// loop trip counts, inconsistent operand sizes and malformed task graphs are
// rejected here, with TDL line numbers, instead of failing deep inside the
// accelerator layer.
func (r *Runtime) AccPlan(tdlSrc string, params map[string]descriptor.Params) (*Plan, error) {
	return r.def.AccPlan(tdlSrc, params)
}

// AccPlanDescriptor installs an already-built descriptor (the path the Go
// public API uses) after running it through the static verifier.
func (r *Runtime) AccPlanDescriptor(d *descriptor.Descriptor) (*Plan, error) {
	return r.def.AccPlanDescriptor(d)
}

// AccPlanDescriptorOn installs a descriptor that will launch on the given
// memory stack's accelerator layer. Buffers on that stack are local to the
// launch; everything else is billed as remote-link traffic. Out-of-core
// lowering is a stack-0 facility (the staging region lives there), so
// host-backed operands are rejected on other stacks.
func (r *Runtime) AccPlanDescriptorOn(stack int, d *descriptor.Descriptor) (*Plan, error) {
	return r.def.AccPlanDescriptorOn(stack, d)
}

// Footprint returns the verifier-derived span sets the plan's task graph
// writes and reads — what admission checks against in-flight descriptors.
// Callers must not mutate the returned slices.
func (p *Plan) Footprint() (writes, reads []span.Span) { return p.writes, p.reads }

// Scopes returns the plan's pass structure, as the install's verifier parsed
// it. Callers must not mutate it.
func (p *Plan) Scopes() []descriptor.Scope { return p.scopes }

// Invocation is the outcome of one AccExecute.
type Invocation struct {
	// Report is the accelerator layer's execution report: the plan's price,
	// the same for every launch of the plan, shared and read-only.
	Report *accel.Report
	// OverheadTime/OverheadEnergy cover the cache flush and descriptor
	// copy (the paper's "cost of accelerator invocation", §5.5).
	OverheadTime   units.Seconds
	OverheadEnergy units.Joules
	// HostIdleEnergy is what the blocked host burns while the
	// accelerators run (the link controller blocks its DRAM accesses).
	// Overlapping flights share the host: each model-time instant is
	// billed to exactly one invocation, so summing HostIdleEnergy across
	// concurrent invocations never double-counts the idle window.
	HostIdleEnergy units.Joules
}

// TotalTime returns overhead plus accelerator time.
func (i *Invocation) TotalTime() units.Seconds { return i.OverheadTime + i.Report.Time }

// TotalEnergy returns overhead, accelerator and idle-host energy.
func (i *Invocation) TotalEnergy() units.Joules {
	return i.OverheadEnergy + i.Report.Energy + i.HostIdleEnergy
}

// InvocationOverhead models the host-side cost of launching a descriptor:
// wbinvd over the dirty working set plus the descriptor store and doorbell.
// It is exported so the experiment harness can evaluate the identical cost
// model at paper-scale sizes without a functional run.
func InvocationOverhead(h *cpu.Host, setup units.Seconds, descSize, dirty units.Bytes) (units.Seconds, units.Joules) {
	flushT, flushE := h.Cache.FlushCost(dirty)
	copyT := h.MemBW.Time(descSize) + setup
	t := flushT + copyT
	e := flushE + h.ActivePower.Energy(copyT) + h.ActivePower.Energy(flushT)
	return t, e
}

// Launch is one launch of a plan: the record Plan.Accept creates, the
// registry holds while the runtime owes the launch anything, and Wait
// collects. It only moves forward:
//
//	Accept ─▶ queued ─(pump)─▶ admitted ─(Start)─▶ started ─▶ retired | failed
//	   └──── uncontended ────────▲
//
// A queued launch holds its place in the order: conflicting host operations
// and its tenant's later launches wait behind it. An admitted one also holds
// a MaxInFlight slot and a start on the model timeline. Start may find the
// launch still queued and waits for the pump; a cancelled wait, a rejection
// by the launch-time verifier and a doorbell or kernel error end the launch
// through the same exit as retirement (finish). The fields are guarded by the
// runtime's mu; inv and err may also be read once done is closed.
type Launch struct {
	p *Plan
	// started is set by the one Start a launch accepts.
	started bool
	// ready exists only if the launch had to queue; admission closes it.
	ready chan struct{}
	// seq is the admission sequence number (0 while queued) and start the
	// model time the launch was admitted at.
	seq   uint64
	start units.Seconds
	// done is closed when the launch leaves the registry, with inv (retired)
	// or err (failed, or its place given back) set. It exists only for a
	// record somebody else can wait on: Execute's never leaves its caller.
	done chan struct{}
	inv  *Invocation
	err  error
}

// Wait blocks until the launch has left the runtime and returns the
// invocation outcome or the error that ended it, or until the context ends.
// A context cancellation abandons the wait only — the flight itself runs to
// completion (the simulated hardware cannot be preempted mid-descriptor),
// and a later Wait call can still collect the result.
func (l *Launch) Wait(ctx context.Context) (*Invocation, error) {
	tb := l.p.rt.tr.Buffer(telemetry.TrackRuntime)
	defer tb.Release()
	tb.Begin(telemetry.SpanWait, "wait")
	select {
	case <-l.done:
	case <-ctx.Done():
		tb.End(telemetry.SpanWait, 0)
		return nil, ctx.Err()
	}
	return l.outcome(tb)
}

// outcome ends the wait span on tb and returns what the finished launch left.
func (l *Launch) outcome(tb *telemetry.Buf) (*Invocation, error) {
	var model units.Seconds
	if l.inv != nil {
		model = l.inv.Report.Time
	}
	tb.End(telemetry.SpanWait, model)
	return l.inv, l.err
}

// Submit launches the plan asynchronously: the mealib_acc_execute doorbell
// without the wait. Admission is dependence-aware — the plan's read/write
// spans are checked against every in-flight descriptor, and Submit blocks
// until no write-write, write-read or read-write overlap remains, that is
// until every flight it depends on has retired as a whole (and the global and
// per-session MaxInFlight caps, if set, have room). Blocked submissions queue
// and are admitted round-robin over tenants (admit.go). The context bounds
// only the admission wait: once admitted, the launch proceeds.
//
// Submit is Accept then Start under one hold of the runtime lock.
func (p *Plan) Submit(ctx context.Context) (*Launch, error) { return p.newLaunch().launch(ctx, true) }

// Accept is the first half of Submit, the one that decides order, and it
// never blocks: the launch is refused (plan destroyed or stale, session
// closed, ErrQueueFull) or takes its place in the registry, admitted on the
// spot or queued. From that instant every later operation whose bytes conflict
// with the launch (a store, load, device copy or free, a Destroy of the plan,
// another launch by the tenant) takes effect after it. A front end that must
// not block its dispatch loop calls Accept there, in the order its tenant
// spoke, and Start wherever it can afford to wait. Every accepted launch must
// be started; a second Start is refused.
func (p *Plan) Accept() (*Launch, error) {
	l := p.newLaunch()
	r := p.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := l.acceptLocked(); err != nil {
		return nil, err
	}
	return l, nil
}

// newLaunch allocates a record somebody may Wait on, before mu is taken:
// concurrent callers share the lock on this path.
func (p *Plan) newLaunch() *Launch { return &Launch{p: p, done: make(chan struct{})} }

func (l *Launch) acceptLocked() error {
	p := l.p
	r, s := p.rt, p.sess
	if p.baseVA == 0 {
		return fmt.Errorf("mealibrt: plan already destroyed")
	}
	if p.stale {
		return fmt.Errorf("%w: session %q freed a buffer its descriptor names", ErrPlanStale, s.cfg.Name)
	}
	if s.closed {
		return ErrSessionClosed
	}
	admit := r.admitNowLocked(p)
	if !admit && s.cfg.MaxQueued > 0 && s.queued >= s.cfg.MaxQueued {
		s.stats.QueueFull++
		s.mQueueFull.Add(1)
		return fmt.Errorf("%w: %d submissions already queued", ErrQueueFull, s.queued)
	}
	r.launches = append(r.launches, l)
	p.accepted++
	if admit {
		r.admitLocked(l)
	} else {
		l.ready = make(chan struct{})
		s.queued++
		s.stats.Stalls++
		s.mStalls.Add(1)
		r.mStalls.Add(1)
	}
	return nil
}

// Start is the second half of Submit: it waits for admission under ctx,
// verifies the launch against the initialized set, rings the doorbell and
// hands the flight to its goroutine. A cancelled wait gives the launch's
// place back. It returns the launch itself, for Wait.
func (l *Launch) Start(ctx context.Context) (*Launch, error) { return l.launch(ctx, false) }

// launch is Start, preceded under the same hold of mu by acceptance when the
// caller is Submit.
func (l *Launch) launch(ctx context.Context, accept bool) (*Launch, error) {
	ovT, ovE, err := l.ring(ctx, accept)
	if err != nil {
		return nil, err
	}
	go l.fly(ovT, ovE)
	return l, nil
}

// ring takes the launch to the doorbell under its submit span and returns the
// modelled invocation overhead; the flight is the caller's to run.
func (l *Launch) ring(ctx context.Context, accept bool) (units.Seconds, units.Joules, error) {
	tb := l.p.rt.tr.Buffer(telemetry.TrackRuntime)
	defer tb.Release()
	tb.Begin(telemetry.SpanSubmit, "submit")
	ovT, ovE, err := l.ringTraced(ctx, accept, tb)
	tb.End(telemetry.SpanSubmit, ovT)
	return ovT, ovE, err
}

func (l *Launch) ringTraced(ctx context.Context, accept bool, tb *telemetry.Buf) (units.Seconds, units.Joules, error) {
	p := l.p
	r, s := p.rt, p.sess
	r.mu.Lock()
	if accept {
		if err := l.acceptLocked(); err != nil {
			r.mu.Unlock()
			return 0, 0, err
		}
	}
	if l.started {
		r.mu.Unlock()
		return 0, 0, fmt.Errorf("mealibrt: launch already started")
	}
	l.started = true
	if l.seq == 0 {
		// The admission span covers only actual stalls, so an uncontended
		// Submit shows a single submit span in the trace.
		tb.Begin(telemetry.SpanAdmission, "admission")
		r.mu.Unlock()
		select {
		case <-l.ready:
			r.mu.Lock()
		case <-ctx.Done():
			// The launch gives its place back, queued or (admission raced
			// the cancellation) already in flight.
			r.finish(l, nil, ctx.Err())
			tb.End2(telemetry.SpanAdmission, 0,
				telemetry.Arg{Key: "cancelled", Val: int64(1)}, telemetry.Arg{})
			return 0, 0, ctx.Err()
		}
		tb.End2(telemetry.SpanAdmission, 0,
			telemetry.Arg{Key: "inflight", Val: int64(r.inflight)}, telemetry.Arg{})
	}
	if err := r.verifyLocked(l); err != nil {
		r.mu.Unlock()
		err = fmt.Errorf("mealibrt: launch rejected by the static verifier: %w", err)
		r.finish(l, nil, err)
		return 0, 0, err
	}
	dirty := r.dirty
	if llc := r.cfg.Host.Cache.LLC(); dirty > llc {
		dirty = llc
	}
	r.dirty = 0
	r.mSubmits.Add(1)
	r.mStackLaunches[p.stack].Add(1)
	s.stats.Submits++
	s.mSubmits.Add(1)
	r.mu.Unlock()

	ovT, ovE := InvocationOverhead(r.cfg.Host, r.cfg.DescriptorSetupLatency, p.descSize, dirty)
	if p.ooc == nil {
		// Out-of-core plans have no resident descriptor to ring: each chunk
		// is installed and doorbelled inside the schedule driver (ooc.go).
		if err := descriptor.SetCommand(p.slot, p.basePA, descriptor.CmdStart); err != nil {
			r.finish(l, nil, err)
			return 0, 0, err
		}
		tb.Instant(telemetry.SpanSubmit, "doorbell")
	}
	return ovT, ovE, nil
}

// verifyLocked is the launch-time verification: of everything the static
// verifier checks, only the read-before-write check depends on the moment of
// the launch, and of that only whether each of the plan's exposed reads
// overlaps initialized data. Admission has drained every writer overlapping
// the plan's reads, so the initialized set is complete. A launch about to be
// rejected runs the whole verifier over the set, for its error. Called with mu
// held.
func (r *Runtime) verifyLocked(l *Launch) error {
	for _, sp := range l.p.exposed {
		if !r.initialized.Overlaps(sp) {
			return tdlcheck.VerifyDescriptor(l.p.desc, tdlcheck.WithInitialized(r.initialized.All()...))
		}
	}
	return nil
}

// fly is the flight: it runs the plan's program on its layer and takes the
// launch out of the registry through finish, retired or failed.
func (l *Launch) fly(ovT units.Seconds, ovE units.Joules) {
	p := l.p
	r := p.rt
	fb := r.tr.Buffer(telemetry.TrackRuntime)
	fb.Begin(telemetry.SpanFlight, "flight")
	var rep *accel.Report
	var err error
	if p.ooc != nil {
		rep, err = r.runOOC(p)
	} else {
		rep, err = r.layers[p.stack].RunProgram(r.space, p.basePA, p.prog)
	}
	// The flight's trace is complete before Wait can return: whoever
	// collects the launch may export the trace.
	if err != nil {
		fb.End(telemetry.SpanFlight, 0)
		fb.Release()
		r.finish(l, nil, err)
		return
	}
	fb.End2(telemetry.SpanFlight, rep.Time,
		telemetry.Arg{Key: "comps", Val: rep.Comps}, telemetry.Arg{})
	fb.Release()
	r.finish(l, &Invocation{Report: rep, OverheadTime: ovT, OverheadEnergy: ovE}, nil)
}

// retireLocked is the successful flight's half of finish: the descriptor's
// writes become live data for subsequent launches and the accounting lands in
// Stats and in inv. The host idles while a descriptor is in flight, and each
// instant is billed once: the billed windows are [0, clock) (DESIGN.md, "Model
// clock"), so a flight is billed the part of [start, end) past the frontier.
func (r *Runtime) retireLocked(l *Launch, inv *Invocation) {
	rep := inv.Report
	for _, s := range l.p.writes {
		r.initialized.Add(s)
	}
	end := l.start + rep.Time
	// The span less its billed part, not end - clock: the two can differ in
	// the last bit when flights overlap.
	idle := end - l.start
	if billed := min(r.clock, end) - l.start; billed > 0 {
		idle -= billed
	}
	r.clock = max(r.clock, end)
	inv.HostIdleEnergy = r.cfg.Host.Wait(idle).Energy
	r.stats.Invocations++
	r.stats.OverheadTime += inv.OverheadTime
	r.stats.OverheadEnergy += inv.OverheadEnergy
	r.stats.AccelTime += rep.Time
	r.stats.AccelEnergy += rep.Energy
	r.stats.HostIdleEnergy += inv.HostIdleEnergy
	s := l.p.sess
	s.stats.Invocations++
	s.stats.AccelTime += rep.Time
	s.stats.BytesMoved += rep.NoCBytes
	s.stats.BytesElided += rep.ElidedBytes
}

// AccExecute launches the plan and waits for it (mealib_acc_execute):
// flush, doorbell, run, and account. The same plan can be executed
// repeatedly. Execute is Accept and Run under one hold of the runtime lock,
// with a record nobody else could collect.
func (p *Plan) Execute(ctx context.Context) (*Invocation, error) {
	l := execRecords.Get().(*Launch)
	l.p = p
	inv, err := l.run(ctx, true)
	*l = Launch{}
	execRecords.Put(l)
	return inv, err
}

// execRecords holds the records of finished Executes. Such a record never
// leaves its caller, and every way out of run passes finish, which takes it
// out of the registry: once run returns, nothing else reaches it.
var execRecords = sync.Pool{New: func() any { return new(Launch) }}

// Run is Start followed by Wait, by one caller, so the flight runs where that
// caller would only wait for it: on its own goroutine, with no hand-off. The
// context therefore bounds the admission wait only (a cancelled one gives the
// launch's place back, as in Start). Once admitted, the launch runs to
// completion before Run returns, as it would have behind an abandoned Wait
// (the simulated hardware cannot be preempted mid-descriptor). Run counts as
// the launch's one Start, and Wait still collects the outcome afterwards.
func (l *Launch) Run(ctx context.Context) (*Invocation, error) { return l.run(ctx, false) }

func (l *Launch) run(ctx context.Context, accept bool) (*Invocation, error) {
	ovT, ovE, err := l.ring(ctx, accept)
	if err != nil {
		return nil, err
	}
	tb := l.p.rt.tr.Buffer(telemetry.TrackRuntime)
	defer tb.Release()
	tb.Begin(telemetry.SpanWait, "wait")
	l.fly(ovT, ovE)
	return l.outcome(tb)
}

// ModelTime returns the model-time frontier: the end of the latest retired
// flight's window on the model timeline.
func (r *Runtime) ModelTime() units.Seconds {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// Destroy releases the plan's command-space allocation
// (mealib_acc_destroy), after the plan's accepted launches have drained.
func (p *Plan) Destroy() error {
	r := p.rt
	r.mu.Lock()
	for p.accepted > 0 {
		r.cond.Wait()
	}
	if p.baseVA == 0 {
		r.mu.Unlock()
		return fmt.Errorf("mealibrt: plan already destroyed")
	}
	delete(p.sess.plans, p)
	va := p.baseVA
	p.baseVA = 0
	r.mu.Unlock()
	return r.driver.Free(va)
}
