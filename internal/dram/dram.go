// Package dram is a trace-driven DRAM simulator covering both the HMC-like
// 3D-stacked memory that hosts the MEALib accelerator layer and the
// conventional DDR3 channels of the baseline platforms (paper §4.2: the
// "in-house cycle-accurate 3D-stacked DRAM simulator" fed with accelerator
// memory traces, parameterised from CACTI-3DD).
//
// The simulator models vaults (channels), banks, open rows, and the
// activate/precharge/column-access timing and energy of each request, and
// reports achieved bandwidth and energy for a request stream. Streaming
// request patterns hit open rows and approach the configured peak bandwidth;
// random patterns pay row misses — which is exactly why SPMV lands far below
// AXPY on every platform in the paper's Figure 9.
package dram

import (
	"fmt"

	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// AddressMode selects how physical addresses map to channels (paper §4.1).
type AddressMode int

// Address mapping modes.
const (
	// modeChannelInterleave distributes each physical page across all
	// channels in block granularity — the default of modern memory
	// controllers, and the zero Mode.
	modeChannelInterleave AddressMode = iota
	// ModeAsymmetric reproduces the paper's measurement trick: with one
	// DIMM removed, the high-address zone falls into single-channel mode.
	// Addresses below AsymmetricBoundary interleave across the first
	// Channels-1 channels; addresses at or above it map entirely to the
	// last channel, which the paper uses to stand in for the local memory
	// stack of the accelerators.
	ModeAsymmetric
)

// Config parameterises one memory device.
type Config struct {
	Name string

	// Addressing.
	Mode AddressMode
	// AsymmetricBoundary splits the address space in ModeAsymmetric.
	AsymmetricBoundary phys.Addr

	// Geometry.
	Channels        int         // vaults for a 3D stack, channels for DDR
	BanksPerChannel int         // banks reachable independently per channel
	RowBytes        units.Bytes // DRAM page (row buffer) size per bank
	BlockBytes      units.Bytes // channel interleave granularity
	AccessBytes     units.Bytes // data moved per column command (burst)

	// Timing.
	TRCD units.Seconds // activate to column command
	TRP  units.Seconds // precharge
	TCL  units.Seconds // column access latency
	TRAS units.Seconds // activate to precharge (row restoration)
	// ChannelBW is the peak data rate of one channel's data path
	// (vault TSV bus for a 3D stack).
	ChannelBW units.BytesPerSec

	// Energy.
	EActivateRow units.Joules // activate+precharge energy for one row
	EBitAccess   units.Joules // per-bit array access energy
	EBitIO       units.Joules // per-bit transport energy (TSV or channel I/O)
	BackgroundW  units.Watts  // standby + refresh power for the whole device
}

// PeakBandwidth returns the aggregate peak data rate.
func (c *Config) PeakBandwidth() units.BytesPerSec {
	return units.BytesPerSec(float64(c.ChannelBW) * float64(c.Channels))
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.BanksPerChannel <= 0:
		return fmt.Errorf("dram %s: non-positive geometry", c.Name)
	case c.RowBytes <= 0 || c.BlockBytes <= 0 || c.AccessBytes <= 0:
		return fmt.Errorf("dram %s: non-positive sizes", c.Name)
	case c.AccessBytes > c.RowBytes:
		return fmt.Errorf("dram %s: access %v larger than row %v", c.Name, c.AccessBytes, c.RowBytes)
	case c.ChannelBW <= 0:
		return fmt.Errorf("dram %s: non-positive bandwidth", c.Name)
	case c.Mode == ModeAsymmetric && c.Channels < 2:
		return fmt.Errorf("dram %s: asymmetric mode needs at least 2 channels", c.Name)
	}
	return nil
}

// HMC3D returns the 3D-stacked configuration used by the MEALib accelerator
// layer: 16 vaults, 8 banks each, small 256 B pages, 510 GB/s aggregate
// internal bandwidth (Table 3). Timing and energy follow CACTI-3DD-class
// numbers for a 32 nm stacked DRAM: small pages make activation cheap, and
// TSV transport costs a fraction of off-chip I/O.
func HMC3D() *Config {
	return &Config{
		Name:            "HMC-3D",
		Channels:        16,
		BanksPerChannel: 8,
		RowBytes:        256,
		BlockBytes:      256,
		AccessBytes:     32,
		TRCD:            13 * units.Nanosecond,
		TRP:             13 * units.Nanosecond,
		TCL:             13 * units.Nanosecond,
		TRAS:            27 * units.Nanosecond,
		ChannelBW:       units.GBps(510.0 / 16.0),
		EActivateRow:    0.9e-9,   // 256 B page: ~0.9 nJ act+pre
		EBitAccess:      1.2e-12,  // 1.2 pJ/bit array access
		EBitIO:          0.15e-12, // TSV hop: ~0.15 pJ/bit
		BackgroundW:     1.9,
	}
}

// DDR3 returns the dual-channel DDR3-1600 configuration of the Haswell
// baseline: 25.6 GB/s aggregate, 8 KiB rows, expensive off-chip I/O
// (Table 3 / §4.2).
func DDR3() *Config {
	return &Config{
		Name:            "DDR3-1600x2",
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        8 * units.KiB,
		BlockBytes:      64,
		AccessBytes:     64,
		TRCD:            13.75 * units.Nanosecond,
		TRP:             13.75 * units.Nanosecond,
		TCL:             13.75 * units.Nanosecond,
		TRAS:            35 * units.Nanosecond,
		ChannelBW:       units.GBps(12.8),
		EActivateRow:    15e-9,   // 8 KiB page activation
		EBitAccess:      1.5e-12, // array access
		EBitIO:          4.5e-12, // off-chip DDR I/O
		BackgroundW:     3.0,
	}
}

// Request is one memory access in a trace.
type Request struct {
	Addr  phys.Addr
	Size  units.Bytes
	Write bool
}

// Stats accumulates the outcome of a simulated request stream.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    units.Bytes
	BytesWritten units.Bytes
	RowHits      int64
	RowMisses    int64
	// Time is the completion time of the last access.
	Time units.Seconds
	// DynamicEnergy covers activates and bit movement; BackgroundEnergy is
	// standby+refresh for the duration.
	DynamicEnergy    units.Joules
	BackgroundEnergy units.Joules
}

// Bytes returns total bytes moved.
func (s *Stats) Bytes() units.Bytes { return s.BytesRead + s.BytesWritten }

// Energy returns total energy.
func (s *Stats) Energy() units.Joules { return s.DynamicEnergy + s.BackgroundEnergy }

// Bandwidth returns the achieved data rate.
func (s *Stats) Bandwidth() units.BytesPerSec {
	if s.Time <= 0 {
		return 0
	}
	return units.BytesPerSec(float64(s.Bytes()) / float64(s.Time))
}

// RowHitRate returns the fraction of column accesses that hit an open row.
func (s *Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Simulator services request traces against one Config.
type Simulator struct {
	cfg *Config

	openRow   []int64         // per global bank: open row id, -1 closed
	bankReady []units.Seconds // per global bank
	// busWater tracks each channel bus's cumulative occupancy: the
	// earliest point a new transfer can be scheduled given the data already
	// reserved on that bus. Modelling occupancy instead of strict order
	// approximates an FR-FCFS controller: a bank-delayed request does not
	// head-of-line-block unrelated requests on the same channel.
	busWater []units.Seconds
	stats    Stats
	finish   units.Seconds
	// tr, when non-nil, records one dram_pass span per Run (nil: free).
	tr *telemetry.Tracer
}

// SetTracer attaches a telemetry tracer: each subsequent Run records a
// DRAM-pass span with the trace's request, byte and row-hit counts.
func (s *Simulator) SetTracer(tr *telemetry.Tracer) { s.tr = tr }

// NewSimulator returns a simulator for cfg.
func NewSimulator(cfg *Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg}
	s.Reset()
	return s, nil
}

// config returns the device configuration.
func (s *Simulator) config() *Config { return s.cfg }

// Reset clears all timing and statistics state.
func (s *Simulator) Reset() {
	n := s.cfg.Channels * s.cfg.BanksPerChannel
	s.openRow = make([]int64, n)
	for i := range s.openRow {
		s.openRow[i] = -1
	}
	s.bankReady = make([]units.Seconds, n)
	s.busWater = make([]units.Seconds, s.cfg.Channels)
	s.stats = Stats{}
	s.finish = 0
}

// decode splits a physical address into channel, global bank index and row.
func (s *Simulator) decode(a phys.Addr) (channel int, bank int, row int64) {
	cfg := s.cfg
	var byteInChannel uint64
	if cfg.Mode == ModeAsymmetric && a >= cfg.AsymmetricBoundary {
		// Single-channel zone: the whole high region lives on the last
		// channel (the paper's DIMM3).
		channel = cfg.Channels - 1
		byteInChannel = uint64(a - cfg.AsymmetricBoundary)
	} else {
		channels := uint64(cfg.Channels)
		if cfg.Mode == ModeAsymmetric {
			channels-- // the interleaved zone spans the remaining channels
		}
		block := uint64(a) / uint64(cfg.BlockBytes)
		channel = int(block % channels)
		cblock := block / channels
		byteInChannel = cblock*uint64(cfg.BlockBytes) + uint64(a)%uint64(cfg.BlockBytes)
	}
	rowGlobal := int64(byteInChannel / uint64(cfg.RowBytes))
	bankInChannel := int(rowGlobal % int64(cfg.BanksPerChannel))
	row = rowGlobal / int64(cfg.BanksPerChannel)
	bank = channel*cfg.BanksPerChannel + bankInChannel
	return channel, bank, row
}

// Access services one request, splitting it into column accesses, and
// returns the completion time of its last beat.
func (s *Simulator) Access(req Request) units.Seconds {
	if req.Size <= 0 {
		return s.finish
	}
	if req.Write {
		s.stats.Writes++
		s.stats.BytesWritten += req.Size
	} else {
		s.stats.Reads++
		s.stats.BytesRead += req.Size
	}
	cfg := s.cfg
	transfer := cfg.ChannelBW.Time(cfg.AccessBytes)
	var last units.Seconds
	for off := units.Bytes(0); off < req.Size; off += cfg.AccessBytes {
		addr := req.Addr + phys.Addr(off)
		ch, bank, row := s.decode(addr)
		// bankReady holds when the bank can deliver its next beat of data.
		// Column commands to an open row pipeline behind earlier transfers,
		// so a hit is gated only by the bank's previous beat and the channel
		// bus. A miss additionally pays row restoration + precharge +
		// activate + column latency on that bank — a penalty that stays
		// hidden as long as other banks keep the bus busy (bank-level
		// parallelism), and is exposed on random access patterns.
		earliest := s.bankReady[bank]
		if s.openRow[bank] != row {
			penalty := cfg.TRCD + cfg.TCL
			if s.openRow[bank] >= 0 {
				penalty += cfg.TRAS + cfg.TRP
			}
			earliest += penalty
			s.openRow[bank] = row
			s.stats.RowMisses++
			s.stats.DynamicEnergy += cfg.EActivateRow
		} else {
			s.stats.RowHits++
		}
		bits := float64(cfg.AccessBytes) * 8
		s.stats.DynamicEnergy += units.Joules(bits * float64(cfg.EBitAccess+cfg.EBitIO))
		dataStart := earliest
		if s.busWater[ch] > dataStart {
			dataStart = s.busWater[ch]
		}
		done := dataStart + transfer
		// Reserve bus occupancy without serialising behind this request:
		// later requests whose banks are ready earlier may still be
		// scheduled into the gap (out-of-order controller).
		s.busWater[ch] += transfer
		s.bankReady[bank] = done
		if done > last {
			last = done
		}
	}
	if last > s.finish {
		s.finish = last
	}
	return last
}

// Run services a whole trace and returns the final statistics.
func (s *Simulator) Run(trace []Request) Stats {
	tb := s.tr.Buffer(telemetry.TrackDRAM)
	defer tb.Release()
	tb.Begin(telemetry.SpanDRAMPass, s.cfg.Name)
	for _, r := range trace {
		s.Access(r)
	}
	st := s.Finalize()
	tb.End2(telemetry.SpanDRAMPass, st.Time,
		telemetry.Arg{Key: "requests", Val: st.Reads + st.Writes},
		telemetry.Arg{Key: "row_hits", Val: st.RowHits})
	if s.tr != nil {
		reg := s.tr.Metrics()
		reg.Counter("dram.passes").Add(1)
		reg.Counter("dram.requests").Add(st.Reads + st.Writes)
		reg.Counter("dram.bytes").Add(int64(st.Bytes()))
		reg.Counter("dram.row_hits").Add(st.RowHits)
		reg.Counter("dram.row_misses").Add(st.RowMisses)
	}
	return st
}

// Finalize charges background energy for the elapsed time and returns a
// snapshot of the statistics.
func (s *Simulator) Finalize() Stats {
	out := s.stats
	// The device cannot finish before every channel's reserved bus
	// occupancy has drained.
	for _, w := range s.busWater {
		if w > s.finish {
			s.finish = w
		}
	}
	out.Time = s.finish
	out.BackgroundEnergy = s.cfg.BackgroundW.Energy(s.finish)
	return out
}

// streamEstimate analytically predicts the stats of a perfectly sequential
// stream of n bytes (the fast path used for paper-scale workloads where a
// full trace would be billions of requests). It applies the same per-access
// arithmetic the trace path uses, aggregated in closed form, and matches the
// trace-driven result for streaming patterns (see tests).
func (s *Simulator) streamEstimate(n units.Bytes, write bool) Stats {
	cfg := s.cfg
	if n <= 0 {
		return Stats{}
	}
	accesses := int64((n + cfg.AccessBytes - 1) / cfg.AccessBytes)
	rows := int64((n + cfg.RowBytes - 1) / cfg.RowBytes)
	// Steady-state streaming is bus-limited: banks in each channel pipeline
	// activations behind transfers. One leading activation is exposed.
	time := units.Seconds(float64(n)/float64(cfg.PeakBandwidth())) + cfg.TRCD + cfg.TCL
	bits := float64(n) * 8
	var st Stats
	if write {
		st.Writes = accesses
		st.BytesWritten = n
	} else {
		st.Reads = accesses
		st.BytesRead = n
	}
	st.RowMisses = rows
	st.RowHits = accesses - rows
	if st.RowHits < 0 {
		st.RowHits = 0
	}
	st.DynamicEnergy = units.Joules(float64(rows))*cfg.EActivateRow +
		units.Joules(bits*float64(cfg.EBitAccess+cfg.EBitIO))
	st.Time = time
	st.BackgroundEnergy = cfg.BackgroundW.Energy(time)
	return st
}
