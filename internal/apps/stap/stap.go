// Package stap models the paper's real-world application: Space-Time
// Adaptive Processing from the PNNL PERFECT suite (paper §3.1 Listing 1,
// §5.5, Table 4). The pipeline interleaves memory-bounded library calls
// (data copy/RESHP, batched FFT, millions of CDOTC inner products, SAXPY
// weight updates) with compute-bounded ones (CHERK covariance updates and
// CTRSM triangular solves).
//
// Two execution plans are modelled, matching the paper's comparison:
//
//   - Haswell: the optimized MKL+OpenMP baseline runs everything on the
//     host;
//   - MEALib: the compute-bounded calls stay on the host while the
//     memory-bounded calls execute on the memory-side accelerators, invoked
//     through exactly 3 accelerator descriptors (RESHP+FFT chained pass,
//     one LOOP descriptor for the CDOTC nest, one for the SAXPY nest).
//
// A scaled-down STAP also runs fully functionally through the runtime (see
// pipeline.go); this file is the analytic model used at paper scale.
package stap

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/cpu"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

// Params sizes one coherent processing interval.
type Params struct {
	Name      string
	NChan     int // antenna channels
	NPulses   int // pulses (Doppler bins after FFT)
	NRange    int // range gates
	NBlocks   int // training blocks
	NSteering int // steering vectors
	TDOF      int // temporal degrees of freedom
	TBS       int // training block size (cells per block)
}

// Small, Medium and Large are the three data sets of Figure 13.
func Small() Params {
	return Params{Name: "small", NChan: 4, NPulses: 64, NRange: 1024,
		NBlocks: 8, NSteering: 8, TDOF: 4, TBS: 32}
}

// Medium returns the medium data set.
func Medium() Params {
	return Params{Name: "medium", NChan: 6, NPulses: 128, NRange: 4096,
		NBlocks: 12, NSteering: 12, TDOF: 4, TBS: 64}
}

// Large returns the large data set.
func Large() Params {
	return Params{Name: "large", NChan: 8, NPulses: 256, NRange: 12288,
		NBlocks: 16, NSteering: 16, TDOF: 4, TBS: 80}
}

// Dof returns the adaptive problem dimension (TDOF x NChan).
func (p Params) Dof() int { return p.TDOF * p.NChan }

// DatacubeElems returns the radar datacube size in complex samples.
func (p Params) DatacubeElems() int { return p.NChan * p.NPulses * p.NRange }

// DotCalls returns the number of cdotc library calls in the inner-product
// stage (the paper's 16M figure for its data set).
func (p Params) DotCalls() int64 {
	return int64(p.NPulses) * int64(p.NBlocks) * int64(p.NSteering) * int64(p.TBS)
}

// Stage is one pipeline phase with its workload.
type Stage struct {
	Name string
	// Op identifies the accelerator for memory-bounded stages;
	// Compute marks host-only (CHERK/CTRSM) stages.
	Op      descriptor.OpCode
	Compute bool
	Flops   units.Flops
	// Bytes is effective DRAM traffic after on-chip reuse (both the host
	// LLC and the accelerator tile memories capture the per-block working
	// sets of the solver stages, so reuse applies to both plans).
	Bytes units.Bytes
	// HostEff is the MKL sustained fraction of host peak for this stage
	// when it is compute-limited (short-vector kernels sustain less than
	// GEMM-class code).
	HostEff float64
	// AccelFlopsRate is the accelerator datapath rate for the stage.
	AccelFlopsRate units.FlopsPerSec
	// HostBWEff / AccelBWEff are achieved-bandwidth fractions (from the
	// same calibration family as internal/platform).
	HostBWEff  float64
	AccelBWEff float64
}

// Stages derives the Table 4 pipeline for a parameter set.
func Stages(p Params) []Stage {
	d := int64(p.DatacubeElems())
	n := int64(p.Dof())
	pairs := int64(p.NPulses) * int64(p.NBlocks) // (dop, block) solver problems
	dotCalls := p.DotCalls()
	axpyCalls := int64(p.NPulses) * int64(p.NBlocks) * int64(p.NSteering)

	// Unique DOT traffic: per (dop, block): the snapshot block (n*TBS), the
	// steering weights (NSteering*n) and the products (NSteering*TBS); the
	// inner products themselves reuse these from on-chip storage.
	dotUnique := pairs * (n*int64(p.TBS) + int64(p.NSteering)*n + int64(p.NSteering)*int64(p.TBS)) * 8

	return []Stage{
		{
			// In-app the pulse-major copy is blocked by MKL and far more
			// cache friendly than the Table 2 strided 16k x 16k transpose.
			Name: "reshape (fftw guru copy)", Op: descriptor.OpRESHP,
			Bytes:     units.Bytes(2 * 8 * d),
			HostBWEff: 0.50, AccelBWEff: 0.95,
		},
		{
			Name: "doppler FFT (fftwf_execute)", Op: descriptor.OpFFT,
			Flops: units.Flops(float64(d)/float64(p.NPulses)) * kernels.FFTFlops(p.NPulses),
			// Short batched transforms are cache resident on the host: the
			// data streams once, unlike the out-of-core 8k x 8k benchmark.
			Bytes:     units.Bytes(2 * 8 * d),
			HostBWEff: 0.90, AccelBWEff: 0.80,
			AccelFlopsRate: units.GFlops(2000),
		},
		{
			Name: "covariance (cblas_cherk)", Compute: true,
			Flops:   units.Flops(pairs) * kernels.CherkFlops(int(n), p.TBS),
			Bytes:   units.Bytes(pairs * (n*int64(p.TBS) + n*n) * 8),
			HostEff: 0.82,
		},
		{
			Name: "solve (cblas_ctrsm x2)", Compute: true,
			Flops: units.Flops(pairs) * (2*kernels.CtrsmFlops(int(n), p.NSteering) +
				units.Flops(4.0/3.0*float64(n*n*n))), // + Cholesky factor
			Bytes:   units.Bytes(pairs * (n*n + n*int64(p.NSteering)) * 8),
			HostEff: 0.60, // triangular solves parallelise worse than CHERK
		},
		{
			Name: "inner products (cblas_cdotc_sub)", Op: descriptor.OpDOT,
			Flops:          units.Flops(dotCalls) * kernels.CdotcFlops(int(n)),
			Bytes:          units.Bytes(dotUnique),
			HostEff:        0.50, // short conjugated dots sustain half of peak
			AccelFlopsRate: units.GFlops(512),
			HostBWEff:      0.539, AccelBWEff: 0.95,
		},
		{
			Name: "weight update (cblas_saxpy)", Op: descriptor.OpAXPY,
			Flops:          units.Flops(axpyCalls) * kernels.SaxpyFlops(int(n)),
			Bytes:          units.Bytes(axpyCalls * 3 * 4 * n),
			HostEff:        0.30,
			AccelFlopsRate: units.GFlops(256),
			HostBWEff:      0.485, AccelBWEff: 0.95,
		},
	}
}

// StageResult is one stage's modelled execution.
type StageResult struct {
	Stage  Stage
	Time   units.Seconds
	Energy units.Joules
	OnHost bool
}

// Result is a full application run.
type Result struct {
	Params Params
	Stages []StageResult
	// Invocation overhead (MEALib plan only): 3 descriptors' flush+copy.
	InvocationTime   units.Seconds
	InvocationEnergy units.Joules
	Descriptors      int
	Time             units.Seconds
	Energy           units.Joules
}

// EDP returns the energy-delay product.
func (r *Result) EDP() float64 { return units.EDP(r.Energy, r.Time) }

// HostShare returns (time, energy) fractions spent on the host (Figure 14a).
func (r *Result) HostShare() (float64, float64) {
	var ht units.Seconds
	var he units.Joules
	for _, s := range r.Stages {
		if s.OnHost {
			ht += s.Time
			he += s.Energy
		}
	}
	if r.Time <= 0 || r.Energy <= 0 {
		return 0, 0
	}
	return float64(ht) / float64(r.Time), float64(he) / float64(r.Energy)
}

// AccelShares returns each accelerated op's share of total accelerator time
// and energy, plus the invocation share (Figure 14b).
func (r *Result) AccelShares() (timeShare, energyShare map[string]float64) {
	var at units.Seconds
	var ae units.Joules
	for _, s := range r.Stages {
		if !s.OnHost {
			at += s.Time
			ae += s.Energy
		}
	}
	at += r.InvocationTime
	ae += r.InvocationEnergy
	timeShare = map[string]float64{}
	energyShare = map[string]float64{}
	if at <= 0 || ae <= 0 {
		return timeShare, energyShare
	}
	for _, s := range r.Stages {
		if !s.OnHost {
			timeShare[s.Stage.Op.String()] += float64(s.Time) / float64(at)
			energyShare[s.Stage.Op.String()] += float64(s.Energy) / float64(ae)
		}
	}
	timeShare["Invocation"] = float64(r.InvocationTime) / float64(at)
	energyShare["Invocation"] = float64(r.InvocationEnergy) / float64(ae)
	return timeShare, energyShare
}

// hostStageTime models one stage entirely on the host.
func hostStage(h *cpu.Host, s Stage) StageResult {
	eff := s.HostEff
	if eff == 0 {
		eff = h.ComputeEff
	}
	compT := units.Seconds(0)
	if s.Flops > 0 {
		compT = units.Seconds(float64(s.Flops) / (float64(h.Peak) * eff))
	}
	bwEff := s.HostBWEff
	if bwEff == 0 {
		bwEff = 1
	}
	memT := units.Seconds(float64(s.Bytes) / (float64(h.MemBW) * bwEff))
	t := compT
	if memT > t {
		t = memT
	}
	return StageResult{Stage: s, Time: t, Energy: h.ActivePower.Energy(t), OnHost: true}
}

// RunHaswell models the optimized MKL baseline: every stage on the host.
func RunHaswell(p Params, h *cpu.Host) (*Result, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Params: p}
	for _, s := range Stages(p) {
		sr := hostStage(h, s)
		res.Stages = append(res.Stages, sr)
		res.Time += sr.Time
		res.Energy += sr.Energy
	}
	return res, nil
}

// RunMEALib models the co-designed plan: compute stages on the host,
// memory-bounded stages on the accelerator layer, 3 descriptor invocations
// of overhead, and the host idling (link controller blocks it) while
// accelerators run.
func RunMEALib(p Params, h *cpu.Host, cfg *accel.Config, rtCfg *mealibrt.Config) (*Result, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Params: p, Descriptors: 3}
	mesh := cfg.Mesh
	for _, s := range Stages(p) {
		if s.Compute {
			sr := hostStage(h, s)
			res.Stages = append(res.Stages, sr)
			res.Time += sr.Time
			res.Energy += sr.Energy
			continue
		}
		// Accelerated stage.
		bw := units.BytesPerSec(float64(cfg.DRAM.PeakBandwidth()) * s.AccelBWEff)
		memT := bw.Time(s.Bytes)
		compT := units.Seconds(0)
		if s.Flops > 0 && s.AccelFlopsRate > 0 {
			compT = units.Seconds(float64(s.Flops) / float64(s.AccelFlopsRate))
		}
		t := memT
		if compT > t {
			t = compT
		}
		row, err := accel.SynthesisOf(s.Op)
		if err != nil {
			return nil, err
		}
		e := row.Power.Energy(t) + mesh.StaticPower().Energy(t)
		// The blocked host still burns idle power.
		e += h.IdlePower.Energy(t)
		res.Stages = append(res.Stages, StageResult{Stage: s, Time: t, Energy: e})
		res.Time += t
		res.Energy += e
	}
	// Invocation overhead: 3 descriptors, each flushing a dirty working set
	// bounded by the LLC and copying a small descriptor.
	var descSize units.Bytes = 4 * units.KiB
	// The wbinvd drains only actually-dirty lines; on this read-dominated
	// pipeline that is a small fraction of the LLC.
	dirty := h.Cache.LLC() / 16
	for i := 0; i < res.Descriptors; i++ {
		ovT, ovE := mealibrt.InvocationOverhead(h, rtCfg.DescriptorSetupLatency, descSize, dirty)
		res.InvocationTime += ovT
		res.InvocationEnergy += ovE
	}
	res.Time += res.InvocationTime
	res.Energy += res.InvocationEnergy
	return res, nil
}

// Gains compares the two plans (Figure 13).
type Gains struct {
	Params      Params
	Performance float64 // Haswell time / MEALib time
	EDP         float64 // Haswell EDP / MEALib EDP
	Haswell     *Result
	MEALib      *Result
}

// Compare runs both plans on the paper's default system.
func Compare(p Params) (*Gains, error) {
	h := cpu.Haswell()
	cfg := accel.MEALibConfig()
	rtCfg := mealibrt.DefaultConfig()
	base, err := RunHaswell(p, h)
	if err != nil {
		return nil, err
	}
	mea, err := RunMEALib(p, h, cfg, rtCfg)
	if err != nil {
		return nil, err
	}
	if mea.Time <= 0 || mea.EDP() <= 0 {
		return nil, fmt.Errorf("stap: degenerate MEALib result")
	}
	return &Gains{
		Params:      p,
		Performance: float64(base.Time) / float64(mea.Time),
		EDP:         base.EDP() / mea.EDP(),
		Haswell:     base,
		MEALib:      mea,
	}, nil
}
