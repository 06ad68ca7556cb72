// Package multistack scales MEALib past one memory stack: N simulated
// stacks — each with its own accelerator logic layer — behind one runtime,
// a CSR matrix sharded across them by contiguous row blocks, and an
// inter-stack interconnect model that prices the cross-stack vector
// exchange an iterated sharded SpMV generates. The paper evaluates a single
// stack; this subsystem is the "what came after" evaluation axis (Tesseract
// and its successors): at graph scale the inter-stack links, not per-vault
// bandwidth, bound performance.
//
// Determinism contract: sharding never changes results. Row-block
// partitions keep every row's CSR entry order, each shard's SpMV
// accumulates exactly like the single-stack kernel (float64 per row, entry
// order), and the exchange copies whole result segments — so an iterated
// run is bit-identical to the serial single-stack reference, for any stack
// count and either partitioner. Only the model timeline and energy differ.
//
// Model split: functionally the exchange writes every updated segment into
// every stack's full-length working vector (cheap host copies, bit-exact);
// the interconnect model bills only the ghost bytes — the entries of
// remote-owned segments a shard's column pattern actually references —
// pre-computed per (owner, consumer) pair at shard time. Edge-cut-reducing
// placement therefore reduces modeled traffic, time and energy without
// touching results.
package multistack

import (
	"fmt"

	"mealib/internal/mealibrt"
	"mealib/internal/noc"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Config assembles a multi-stack system.
type Config struct {
	// Stacks is the number of memory stacks (>= 1).
	Stacks int
	// Runtime is the base runtime configuration; its driver stack count is
	// overridden with Stacks. Nil uses mealibrt.DefaultConfig().
	Runtime *mealibrt.Config
	// Net parameterises the inter-stack interconnect. Nil uses
	// noc.MEALibInterStack(Stacks).
	Net *noc.InterStackConfig
	// Tracer records exchange spans and per-link counters (nil: disabled).
	// It also propagates into the runtime if that has no tracer of its own.
	Tracer *telemetry.Tracer
}

// System is N stacks behind one runtime plus the interconnect timeline.
type System struct {
	cfg Config
	rt  *mealibrt.Runtime
	net *noc.InterStack
	tr  *telemetry.Tracer
	// clock is the engine's model-time frontier: compute phases and
	// exchange phases alternate on it.
	clock units.Seconds
	// mPairBytes[s][d] mirrors the interconnect's per-link byte ledger into
	// the metric registry; mEgressNS[k] is the per-stack port-occupancy
	// counter (nanoseconds of egress serialisation).
	mPairBytes [][]*telemetry.Counter
	mEgressNS  []*telemetry.Counter
}

// New builds the system: a driver with Stacks data spaces, one accelerator
// layer per stack (the runtime does that), and an idle interconnect.
func New(cfg Config) (*System, error) {
	if cfg.Stacks < 1 {
		return nil, fmt.Errorf("multistack: need at least one stack, got %d", cfg.Stacks)
	}
	rc := cfg.Runtime
	if rc == nil {
		rc = mealibrt.DefaultConfig()
	}
	rcCopy := *rc
	rcCopy.Driver.Stacks = cfg.Stacks
	if rcCopy.Tracer == nil {
		rcCopy.Tracer = cfg.Tracer
	}
	rt, err := mealibrt.New(&rcCopy)
	if err != nil {
		return nil, err
	}
	nc := cfg.Net
	if nc == nil {
		nc = noc.MEALibInterStack(cfg.Stacks)
	} else if nc.Stacks != cfg.Stacks {
		return nil, fmt.Errorf("multistack: interconnect spans %d stacks, system has %d", nc.Stacks, cfg.Stacks)
	}
	net, err := noc.NewInterStack(*nc)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, rt: rt, net: net, tr: cfg.Tracer}
	reg := cfg.Tracer.Metrics()
	for src := 0; src < cfg.Stacks; src++ {
		var row []*telemetry.Counter
		for dst := 0; dst < cfg.Stacks; dst++ {
			row = append(row, reg.Counter(fmt.Sprintf("xstack.bytes.s%d_to_s%d", src, dst)))
		}
		s.mPairBytes = append(s.mPairBytes, row)
		s.mEgressNS = append(s.mEgressNS, reg.Counter(fmt.Sprintf("xstack.egress_busy_ns.s%d", src)))
	}
	return s, nil
}

// Net exposes the interconnect timeline (counters and conservation checks).
func (s *System) Net() *noc.InterStack { return s.net }

// modelTime returns the engine's model-time frontier: alternating compute
// phases (max over the concurrent per-shard launches) and exchange phases
// (interconnect makespan).
func (s *System) modelTime() units.Seconds { return s.clock }
