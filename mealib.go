// Package mealib is the public API of the MEALib reproduction: a
// hardware/software co-designed system that executes memory-bounded library
// operations (BLAS level 1/2, sparse matrix-vector products, resampling,
// FFTs and reshapes) on accelerators integrated into simulated 3D-stacked
// DRAM, while compute-bounded work stays on the host
// ("Enabling Portable Energy Efficiency with Memory Accelerated Library",
// MICRO-48, 2015).
//
// A System owns one accelerated memory stack: a physical address space, the
// device driver with its physically contiguous data and command spaces, and
// the accelerator layer. Buffers allocated from the System are visible to
// both the host (your Go code) and the accelerators. Operations execute
// functionally — results are real — and every run reports the modelled
// time and energy of the simulated hardware.
//
//	sys, _ := mealib.New()
//	x, _ := mealib.Alloc[float32](sys, 1<<20)
//	y, _ := mealib.Alloc[float32](sys, 1<<20)
//	x.Set(xs)
//	y.Set(ys)
//	run, _ := sys.Saxpy(2.0, x, y) // y += 2x on the AXPY accelerator
//	fmt.Println(run.Time, run.Energy)
//
// Multi-accelerator datapaths (the paper's PASS chaining) and hardware
// loops (LOOP descriptors that compact millions of library calls into one
// invocation) are built with NewPlan. Legacy C sources are translated with
// CompileC.
package mealib

import (
	"context"
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/cpu"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

// Option customises a System.
type Option func(*mealibrt.Config)

// WithDataSpace sets the physically contiguous data space size per stack
// (default 1 GiB).
func WithDataSpace(n int64) Option {
	return func(c *mealibrt.Config) { c.Driver.DataSize = units.Bytes(n) }
}

// WithStacks sets the number of memory stacks (paper Figure 2: a host in
// front of multiple stacks). Stack 0 is the accelerators' Local Memory
// Stack; buffers placed on other stacks reach the accelerators over the
// inter-stack links, at link bandwidth.
func WithStacks(n int) Option {
	return func(c *mealibrt.Config) { c.Driver.Stacks = n }
}

// WithAccelerator replaces the accelerator-layer configuration (frequency,
// tiles, bandwidth model) — the knob the design-space studies turn.
func WithAccelerator(cfg *accel.Config) Option {
	return func(c *mealibrt.Config) { c.Accel = cfg }
}

// WithHost replaces the host processor model.
func WithHost(h *cpu.Host) Option {
	return func(c *mealibrt.Config) { c.Host = h }
}

// WithMaxInFlight caps the number of plans concurrently in flight through
// InstalledPlan.Submit (0 = unlimited). Submissions past the cap block
// until a flight completes.
func WithMaxInFlight(n int) Option {
	return func(c *mealibrt.Config) { c.MaxInFlight = n }
}

// WithStaging carves a double-buffered staging region of n bytes out of
// stack 0's data space and enables out-of-core execution: allocations past
// the stack's physical capacity fall back to host-backed buffers, and
// descriptors naming them run as chunked staged launches, bit-identical to
// the in-core path. Zero (the default) disables out-of-core execution, and
// over-capacity allocations fail with a typed error.
func WithStaging(n int64) Option {
	return func(c *mealibrt.Config) { c.Driver.StagingSize = units.Bytes(n) }
}

// WithoutPrefetch runs out-of-core chunk schedules synchronously (stage in,
// execute, write back, one chunk at a time) instead of prefetching the next
// chunk's tiles under the current chunk's execution. Results are
// bit-identical; only the modelled overlap differs.
func WithoutPrefetch() Option {
	return func(c *mealibrt.Config) { c.NoPrefetch = true }
}

// AcceleratorConfig returns the paper's accelerator layer configuration for
// customisation with WithAccelerator.
func AcceleratorConfig() *accel.Config { return accel.MEALibConfig() }

// HaswellHost returns the paper's host model for customisation with
// WithHost.
func HaswellHost() *cpu.Host { return cpu.Haswell() }

// System is one host plus one accelerated memory stack.
type System struct {
	rt *mealibrt.Runtime
}

// New builds a system with the paper's default configuration.
func New(opts ...Option) (*System, error) {
	cfg := mealibrt.DefaultConfig()
	for _, opt := range opts {
		opt(cfg)
	}
	rt, err := mealibrt.New(cfg)
	if err != nil {
		return nil, err
	}
	return &System{rt: rt}, nil
}

// Runtime exposes the underlying MEALib runtime for advanced use (raw
// descriptors, TDL programs, the device driver).
func (s *System) Runtime() *mealibrt.Runtime { return s.rt }

// Run reports one accelerator invocation: what executed, how long the
// simulated hardware took, and the energy it consumed.
type Run struct {
	// Time covers the invocation end to end: host-side overhead (cache
	// flush, descriptor copy) plus accelerator execution.
	Time units.Seconds
	// Energy covers overhead, accelerators and the idled host.
	Energy units.Joules
	// AccelTime/AccelEnergy isolate the accelerator layer.
	AccelTime   units.Seconds
	AccelEnergy units.Joules
	// Comps counts accelerator activations (loop iterations included).
	Comps int64
}

func runOf(inv *mealibrt.Invocation) *Run {
	return &Run{
		Time:        inv.TotalTime(),
		Energy:      inv.TotalEnergy(),
		AccelTime:   inv.Report.Time,
		AccelEnergy: inv.Report.Energy,
		Comps:       inv.Report.Comps,
	}
}

// Stats aggregates all invocations since the system was created.
type Stats struct {
	Invocations    int64
	AccelTime      units.Seconds
	AccelEnergy    units.Joules
	OverheadTime   units.Seconds
	OverheadEnergy units.Joules
	// HostIdleEnergy is the energy the blocked host burned while flights
	// were in the air. Overlapping flights share the idle window — the
	// window is billed once, not once per flight.
	HostIdleEnergy units.Joules
}

// Stats returns the accumulated accounting.
func (s *System) Stats() Stats {
	st := s.rt.Stats()
	return Stats{
		Invocations:    st.Invocations,
		AccelTime:      st.AccelTime,
		AccelEnergy:    st.AccelEnergy,
		OverheadTime:   st.OverheadTime,
		OverheadEnergy: st.OverheadEnergy,
		HostIdleEnergy: st.HostIdleEnergy,
	}
}

// execute runs a finished plan once and destroys it.
func (s *System) execute(p *mealibrt.Plan) (*Run, error) {
	inv, err := p.Execute(context.Background())
	if err != nil {
		_ = p.Destroy()
		return nil, err
	}
	if err := p.Destroy(); err != nil {
		return nil, err
	}
	return runOf(inv), nil
}

// errorf wraps facade errors uniformly.
func errorf(format string, args ...any) error {
	return fmt.Errorf("mealib: "+format, args...)
}
