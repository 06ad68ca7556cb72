package platform

import (
	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/power"
	"mealib/internal/units"
)

// Calibration. Every number that the paper publishes is used directly:
// Table 3 core counts, frequencies and bandwidths; Table 5 accelerator
// powers; the quoted FFT powers (Haswell 48 W, Xeon Phi 130 W, MSAS 41 W,
// MEALib 19 W). The remaining free parameters are the per-operation
// achieved-bandwidth efficiencies (what fraction of the Table 3 peak each
// operation's *useful* bytes sustain) and the per-operation host powers.
// They are chosen once, here, so that the Figure 9/10 per-operation ratios
// reproduce the published values; everything downstream (STAP, chaining,
// loops, the design space) follows from the models without further tuning.
//
// Efficiencies above 1.0 are legitimate: they mean the platform moves fewer
// bytes than the nominal single-pass traffic count (e.g. a reshape engine
// with deep write combining, or an FFT accelerator whose on-chip staging
// needs fewer DRAM passes than the cache-blocked MKL code path the nominal
// count is normalised to).

// Haswell returns the MKL-on-i7-4770K baseline (Table 3: 4 cores @ 3.5 GHz,
// 25.6 GB/s, 112 GFLOPS SP peak).
func Haswell() *Platform {
	return &Platform{
		Name:  "Haswell i7-4770K (MKL)",
		Cores: 4,
		Freq:  3.5 * units.GHz,
		Peak:  units.GFlops(112),
		MemBW: units.GBps(25.6),
		Eff: map[descriptor.OpCode]float64{
			// Streaming L1 BLAS pays write-allocate and TLB overheads.
			descriptor.OpAXPY: 0.485,
			descriptor.OpDOT:  0.539,
			// GEMV streams the matrix once; MKL is near-optimal here.
			descriptor.OpGEMV: 0.879,
			// CSR gathers miss rows constantly.
			descriptor.OpSPMV: 0.350,
			// Interpolation reads are mildly irregular.
			descriptor.OpRESMP: 0.600,
			// Out-of-cache FFT makes ~3 passes over the data.
			descriptor.OpFFT: 0.270,
			// Strided transpose thrashes rows and write-allocates.
			descriptor.OpRESHP: 0.214,
		},
		Power: map[descriptor.OpCode]units.Watts{
			descriptor.OpAXPY:  53.6,
			descriptor.OpDOT:   41.3,
			descriptor.OpGEMV:  66.3,
			descriptor.OpSPMV:  46.6,
			descriptor.OpRESMP: 22.4,
			descriptor.OpFFT:   48.0, // quoted in §5.1
			descriptor.OpRESHP: 24.8,
		},
	}
}

// XeonPhi returns the 5110P coprocessor (Table 3: 60 cores @ 1.0 GHz,
// 320 GB/s, ~2 TFLOPS SP peak). The paper observes it barely beats the
// Haswell on these data sets (best case AXPY 2.23x, worst case RESHP 2.4%):
// the efficiencies encode that observed utilisation.
func XeonPhi() *Platform {
	return &Platform{
		Name:  "Xeon Phi 5110P (MKL)",
		Cores: 60,
		Freq:  1.0 * units.GHz,
		Peak:  units.GFlops(2022),
		MemBW: units.GBps(320),
		Eff: map[descriptor.OpCode]float64{
			descriptor.OpAXPY:  0.0865, // 2.23x Haswell (paper)
			descriptor.OpDOT:   0.0647,
			descriptor.OpGEMV:  0.0845,
			descriptor.OpSPMV:  0.0196,
			descriptor.OpRESMP: 0.0240,
			descriptor.OpFFT:   0.0389,
			descriptor.OpRESHP: 0.00041, // 2.4% of Haswell (paper)
		},
		Power: perOpPower(130), // §5.1: 130 W (FFT quoted)
	}
}

// PSAS returns the Processor-Side Accelerated System (Table 3: the same
// 4-core host and 25.6 GB/s memory, with the accelerators sharing the
// processor's memory hierarchy). Paper §5.1: 2.51x Haswell performance and
// ~10.7x energy efficiency on average.
func PSAS() *Platform {
	h := Haswell()
	eff := map[descriptor.OpCode]float64{
		descriptor.OpAXPY:  0.921, // 1.9x Haswell
		descriptor.OpDOT:   0.970, // 1.8x
		descriptor.OpGEMV:  0.967, // 1.1x
		descriptor.OpSPMV:  0.595, // 1.7x (deeper MSHRs than the cores)
		descriptor.OpRESMP: 0.960, // 1.6x
		descriptor.OpFFT:   1.188, // 4.4x (single-pass streaming datapath)
		descriptor.OpRESHP: 1.091, // 5.1x (write-combining reshape engine)
	}
	pw := make(map[descriptor.OpCode]units.Watts, len(h.Power))
	for op, p := range h.Power {
		pw[op] = p * 0.235 // synthesized accelerators draw a fraction of the host
	}
	return &Platform{
		Name:  "PSAS (processor-side accel)",
		Cores: 4,
		Freq:  3.5 * units.GHz,
		Peak:  units.GFlops(448), // accelerator datapaths, 4 tiles
		MemBW: units.GBps(25.6),
		Eff:   eff,
		Power: pw,
	}
}

// MSAS returns the 2D Memory-Side Accelerated System (NDA-style
// accelerators atop commodity DRAM; Table 3: 102.4 GB/s). Paper §5.1:
// 10.32x Haswell performance, ~15x energy efficiency on average; FFT power
// 41 W.
func MSAS() *Platform {
	h := Haswell()
	eff := map[descriptor.OpCode]float64{
		descriptor.OpAXPY:  0.950,
		descriptor.OpDOT:   0.950,
		descriptor.OpGEMV:  0.920,
		descriptor.OpSPMV:  0.350,
		descriptor.OpRESMP: 0.800,
		descriptor.OpFFT:   1.200,
		descriptor.OpRESHP: 1.350,
	}
	pw := make(map[descriptor.OpCode]units.Watts, len(h.Power))
	for op, p := range h.Power {
		pw[op] = p * 0.69
	}
	pw[descriptor.OpFFT] = 41 // quoted in §5.1
	return &Platform{
		Name:  "MSAS (2D memory-side accel)",
		Cores: 4,
		Freq:  3.5 * units.GHz,
		Peak:  units.GFlops(1200), // hardwired datapaths sized for 102.4 GB/s
		MemBW: units.GBps(102.4),
		Eff:   eff,
		Power: pw,
	}
}

// MEALib returns the proposed system (Table 3: 510 GB/s 3D-stacked
// internal bandwidth; powers from Table 5).
func MEALib() *Platform {
	noc := power.MEALib().NoC.Power
	pw := make(map[descriptor.OpCode]units.Watts)
	for _, op := range accel.Ops() {
		row, _ := accel.SynthesisOf(op) // the op table declares every op Ops returns
		pw[op] = row.Power + noc
	}
	return &Platform{
		Name:  "MEALib (3D memory-side accel)",
		Cores: 16 * 4, // 16 tiles x 4 cores
		Freq:  1.0 * units.GHz,
		// Hardwired accelerator datapaths sized so the 510 GB/s stack stays
		// the bottleneck (Figure 11 shows the FFT core alone past 2 TFLOPS).
		Peak:  units.GFlops(4096),
		MemBW: units.GBps(510),
		Eff: map[descriptor.OpCode]float64{
			descriptor.OpAXPY:  0.950,
			descriptor.OpDOT:   0.950,
			descriptor.OpGEMV:  0.900,
			descriptor.OpSPMV:  0.1915, // gathers stay latency-bound even in-stack
			descriptor.OpRESMP: 0.400,  // the small 8 W RESMP core, not bandwidth
			descriptor.OpFFT:   0.800,
			descriptor.OpRESHP: 0.950,
		},
		Power: pw,
	}
}

// perOpPower builds a flat per-operation power table.
func perOpPower(w units.Watts) map[descriptor.OpCode]units.Watts {
	out := make(map[descriptor.OpCode]units.Watts)
	for _, op := range accel.Ops() {
		out[op] = w
	}
	return out
}
