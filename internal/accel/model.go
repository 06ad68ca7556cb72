package accel

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/dram"
	"mealib/internal/noc"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Config parameterises the accelerator layer: the 3D-stacked DRAM it sits
// under, the tile mesh, and the datapath parameters the design-space
// exploration of Figure 11 sweeps. Each accelerator's power and rate are its
// op-table entry's.
type Config struct {
	DRAM *dram.Config
	Mesh *noc.Config

	// Datapath.
	Freq              units.Hertz
	Tiles             int
	CoresPerTile      int
	FlopsPerCoreCycle float64
	LMBytes           units.Bytes // tile-local memory

	// StreamEfficiency is the fraction of peak DRAM bandwidth the streaming
	// engines achieve (accelerators are co-designed with the vault
	// controllers, so this is high).
	StreamEfficiency float64

	// CU is the configuration unit (fetch unit, instruction memory,
	// decode unit) that loads and parses descriptors.
	CU ConfigUnit

	// Memory stacks (paper §3.3): the layer lives on HomeStack (its Local
	// Memory Stack); buffers on other stacks cross the inter-stack links.
	// StackOf maps a physical address to its stack (nil: everything local).
	StackOf func(phys.Addr) int
	// HomeStack is the stack this accelerator layer is integrated into.
	HomeStack int
	// RemoteLinkBW is the bandwidth of the high-speed links between the
	// host and the stacks (HMC-class SerDes).
	RemoteLinkBW units.BytesPerSec
	// ELinkBit is the energy to move one bit across a link.
	ELinkBit units.Joules

	// NoFusion disables the descriptor fusion pass: adjacent
	// producer→consumer passes are lowered as separate plan nodes with the
	// intermediate round-tripping through DRAM, exactly as the paper's
	// one-descriptor-per-call model behaves. Fusion never changes results —
	// this switch exists for differential testing and for the chaining
	// ablation (exp.Ablations), which prices separate passes without it.
	NoFusion bool

	// Workers bounds the goroutines the wavefront scheduler runs the
	// independent nodes of a wave on. 0 selects min(GOMAXPROCS, Tiles) as
	// internal/par's helper budget allows; 1 restores fully serial
	// execution. Other values are honoured whatever the budget (useful to
	// exercise the parallel path deterministically on small hosts). Parallel
	// and serial runs produce byte-identical spaces and identical reports;
	// nodes whose spans overlap are ordered by dependence edges.
	Workers int

	// Tracer, when non-nil, receives execution spans (descriptor launches,
	// plan lowering, waves, nodes) and feeds the
	// accelerator metrics (launches, waves/launch, wave width, per-opcode
	// ns and pJ, bytes moved). nil disables telemetry; the hot path then
	// pays a single branch per instrumentation point and zero allocations.
	Tracer *telemetry.Tracer

	// PassConfigLatency is charged once per pass entry: the decode unit
	// activating accelerators and each accelerator fetching its
	// configuration from memory (paper §2.2).
	PassConfigLatency units.Seconds
	// IterDispatchLatency is the decode unit's cost to re-initiate a
	// configured pass with bumped addresses. Iterations are dispatched
	// round-robin across the tiles, so the effective per-iteration charge
	// is IterDispatchLatency / Tiles (the DU overlaps dispatch with
	// execution on the other tiles).
	IterDispatchLatency units.Seconds
}

// MEALibConfig returns the paper's accelerator layer: 16 tiles (one per
// vault) on the 510 GB/s stack, 1 GHz datapath.
func MEALibConfig() *Config {
	link := noc.MEALibInterStack(1) // the remote links are the inter-stack network's
	return &Config{
		DRAM:                dram.HMC3D(),
		Mesh:                noc.MEALibMesh(),
		Freq:                1 * units.GHz,
		Tiles:               16,
		CoresPerTile:        4,
		FlopsPerCoreCycle:   4, // 2-wide FMA pipes
		LMBytes:             256 * units.KiB,
		StreamEfficiency:    0.95,
		CU:                  DefaultConfigUnit(),
		RemoteLinkBW:        link.LinkBW,
		ELinkBit:            link.EBit,
		PassConfigLatency:   2 * units.Microsecond,
		IterDispatchLatency: 40 * units.Nanosecond,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.DRAM == nil || c.Mesh == nil:
		return fmt.Errorf("accel: config missing DRAM or mesh")
	case c.Freq <= 0 || c.Tiles <= 0 || c.CoresPerTile <= 0 || c.FlopsPerCoreCycle <= 0:
		return fmt.Errorf("accel: non-positive datapath parameters")
	case c.StreamEfficiency <= 0 || c.StreamEfficiency > 1:
		return fmt.Errorf("accel: stream efficiency %v out of (0,1]", c.StreamEfficiency)
	case c.Workers < 0:
		return fmt.Errorf("accel: negative worker count %d", c.Workers)
	case c.ELinkBit < 0:
		return fmt.Errorf("accel: negative link energy per bit")
	}
	if err := c.CU.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// PeakFlops returns the layer's aggregate compute rate.
func (c *Config) PeakFlops() units.FlopsPerSec {
	return units.FlopsPerSec(float64(c.Tiles) * float64(c.CoresPerTile) * c.FlopsPerCoreCycle * float64(c.Freq))
}

// StreamBandwidth returns the achieved sequential bandwidth.
func (c *Config) StreamBandwidth() units.BytesPerSec {
	return units.BytesPerSec(float64(c.DRAM.PeakBandwidth()) * c.StreamEfficiency)
}

// RandomBandwidth returns the throughput of latency-bound gathers: every
// access pays a full row cycle on its bank, hidden only by bank-level
// parallelism.
func (c *Config) RandomBandwidth() units.BytesPerSec {
	tRC := c.DRAM.TRAS + c.DRAM.TRP + c.DRAM.TRCD + c.DRAM.TCL
	if tRC <= 0 {
		return c.DRAM.PeakBandwidth()
	}
	banks := float64(c.DRAM.Channels * c.DRAM.BanksPerChannel)
	perBank := float64(c.DRAM.AccessBytes) / float64(tRC)
	bw := units.BytesPerSec(banks * perBank)
	if bw > c.DRAM.PeakBandwidth() {
		bw = c.DRAM.PeakBandwidth()
	}
	return bw
}

// Cost is the modelled outcome of one accelerator invocation.
type Cost struct {
	Time   units.Seconds
	Energy units.Joules
	// MemTime/CompTime expose which side bound the invocation.
	MemTime  units.Seconds
	CompTime units.Seconds
}

// OpCost converts a workload profile to time and energy for accelerator op,
// at its op-table entry's datapath rate and Table 5 power. Chained traffic
// must already be removed from the Work by the caller.
func (c *Config) OpCost(op descriptor.OpCode, w Work) (Cost, error) {
	s, err := specOf(op)
	if err != nil {
		return Cost{}, err
	}
	memT := c.StreamBandwidth().Time(w.InStream+w.OutStream) + c.RandomBandwidth().Time(w.Random)
	compT := units.Seconds(0)
	if w.Flops > 0 {
		rate := s.rate
		if rate == 0 {
			rate = c.PeakFlops()
		}
		compT = units.Seconds(float64(w.Flops) / float64(rate))
	}
	t := memT
	if compT > t {
		t = compT
	}
	e := s.power.Energy(t) + c.Mesh.StaticPower().Energy(t)
	return Cost{Time: t, Energy: e, MemTime: memT, CompTime: compT}, nil
}
