package exp

import (
	"fmt"
	"math"

	"mealib/internal/par"
	"mealib/internal/units"
)

// pow is a float64 power helper.
func pow(x, y float64) float64 { return math.Pow(x, y) }

// DesignPoint is one configuration of the Figure 11 sweep.
type DesignPoint struct {
	Freq         units.Hertz
	CoresPerTile int
	RowBytes     units.Bytes // DRAM page size of the stacked memory
	BlockSize    int         // SPMV blocking factor (x-vector locality)
	Perf         units.FlopsPerSec
	Power        units.Watts
}

// Efficiency returns GFLOPS/W.
func (p DesignPoint) Efficiency() float64 { return units.GFlopsPerWatt(p.Perf, p.Power) }

// Figure 11 sweeps the accelerator design space at the fixed 510 GB/s stack
// bandwidth (paper §5.3): frequency (0.8-2.0 GHz), accelerator cores per
// tile, DRAM row-buffer size, and (for SPMV) the blocking factor. The
// formulas below are the paper-style analytical models ([24][27][35]):
// performance is the min of the datapath rate and the bandwidth bound;
// power sums DRAM background, bandwidth-proportional DRAM dynamic power
// (scaled by row-buffer efficiency), and frequency/core-proportional logic
// power.

const (
	fig11Tiles    = 16
	fig11StreamBW = 510e9 * 0.95 // bytes/s
)

// FFTDesignSpace evaluates the FFT accelerator over the sweep.
// With tile-local staging the out-of-core 8192x8192 transform makes ~3
// passes over DRAM, so it delivers ~2.7 flops per DRAM byte — large
// datapaths outrun the 510 GB/s stack and waste power, which is what
// spreads the efficiency range in the paper's Figure 11a.
func FFTDesignSpace() []DesignPoint {
	const flopsPerByte = 2.7
	// Enumerate the configurations first, then evaluate them on the worker
	// pool into indexed slots — the sweep order stays deterministic.
	type fftCfg struct {
		freq  units.Hertz
		cores int
		row   units.Bytes
	}
	var cfgs []fftCfg
	for _, freq := range []units.Hertz{0.8 * units.GHz, 1.2 * units.GHz, 1.6 * units.GHz, 2.0 * units.GHz} {
		for _, cores := range []int{1, 2, 4, 8} {
			for _, row := range []units.Bytes{128, 256, 512} {
				cfgs = append(cfgs, fftCfg{freq, cores, row})
			}
		}
	}
	out := make([]DesignPoint, len(cfgs))
	_ = par.Do(len(cfgs), len(cfgs), func(_, i int) error {
		c := cfgs[i]
		// Butterfly datapath: 8 flops/cycle per core.
		compute := float64(fig11Tiles) * float64(c.cores) * 8 * float64(c.freq)
		// Small rows cost extra activates: effective bandwidth drops.
		rowEff := 0.75 + 0.25*float64(c.row)/512
		memBound := fig11StreamBW * rowEff * flopsPerByte
		perf := compute
		if memBound < perf {
			perf = memBound
		}
		bwUsed := perf / flopsPerByte
		power := fftPower(c.freq, c.cores, c.row, bwUsed)
		out[i] = DesignPoint{
			Freq: c.freq, CoresPerTile: c.cores, RowBytes: c.row,
			Perf: units.FlopsPerSec(perf), Power: power,
		}
		return nil
	})
	return out
}

// fftPower models the FFT accelerator + 3D DRAM power. Calibrated so the
// nominal point (1 GHz-class, 4 cores, 256 B rows) lands at Table 5's
// 18.89 W.
func fftPower(freq units.Hertz, cores int, row units.Bytes, bwUsed float64) units.Watts {
	background := 3.2
	// DRAM dynamic: proportional to bandwidth, worse with small rows.
	rowPenalty := float64(256) / float64(row)
	dram := 8.0 * (bwUsed / fig11StreamBW) * (0.7 + 0.3*rowPenalty)
	// Logic: strongly superlinear in frequency (voltage scales with f),
	// linear in datapath width.
	ghz := float64(freq) / 1e9
	logic := 0.19 * float64(fig11Tiles) * float64(cores) * pow(ghz, 2.8)
	return units.Watts(background + dram + logic)
}

// SpmvDesignSpace evaluates the SPMV accelerator: gather-bound, so the
// blocking factor (x-vector locality) matters more than the datapath.
func SpmvDesignSpace() []DesignPoint {
	type spmvCfg struct {
		freq  units.Hertz
		cores int
		block int
	}
	var cfgs []spmvCfg
	for _, freq := range []units.Hertz{0.8 * units.GHz, 1.2 * units.GHz, 1.6 * units.GHz, 2.0 * units.GHz} {
		for _, cores := range []int{1, 2, 4, 8} {
			for _, block := range []int{1, 4, 16, 64} {
				cfgs = append(cfgs, spmvCfg{freq, cores, block})
			}
		}
	}
	out := make([]DesignPoint, len(cfgs))
	_ = par.Do(len(cfgs), len(cfgs), func(_, i int) error {
		c := cfgs[i]
		// Random-access bound: 128 banks, one 32 B access per
		// ~66 ns row cycle; blocking converts part of the gathers
		// to streams.
		randomBW := 128.0 * 32 / 66e-9
		locality := 1.0 + 2.5*(1.0-1.0/float64(c.block))
		// CSR moves 16 bytes per 2 flops -> 0.125 flops/byte.
		memBound := randomBW * locality * 0.125
		compute := float64(fig11Tiles) * float64(c.cores) * 2 * float64(c.freq)
		perf := compute
		if memBound < perf {
			perf = memBound
		}
		ghz := float64(c.freq) / 1e9
		power := 4.5 + 9.0*(perf/(randomBW*3.5*0.125)) + 0.12*float64(fig11Tiles)*float64(c.cores)*ghz
		out[i] = DesignPoint{
			Freq: c.freq, CoresPerTile: c.cores, BlockSize: c.block,
			Perf: units.FlopsPerSec(perf), Power: units.Watts(power),
		}
		return nil
	})
	return out
}

// RenderFigure11 summarises both design spaces.
func RenderFigure11() *Table {
	fft := FFTDesignSpace()
	spmv := SpmvDesignSpace()
	span := func(points []DesignPoint) (loP, hiP, loE, hiE float64) {
		loE, hiE = 1e18, 0
		loP, hiP = 1e18, 0
		for _, p := range points {
			e := p.Efficiency()
			if e < loE {
				loE = e
			}
			if e > hiE {
				hiE = e
			}
			if g := p.Perf.G(); g < loP {
				loP = g
			} else if g > hiP {
				hiP = g
			}
			if g := p.Perf.G(); g > hiP {
				hiP = g
			}
		}
		return
	}
	t := &Table{
		Title:   "Figure 11: FFT and SPMV accelerator design spaces (510 GB/s)",
		Columns: []string{"Accelerator", "Points", "GFLOPS range", "GFLOPS/W range", "paper GFLOPS/W"},
	}
	lo, hi, le, he := span(fft)
	t.Rows = append(t.Rows, []string{"FFT", fmt.Sprintf("%d", len(fft)),
		fmt.Sprintf("%.0f - %.0f", lo, hi), fmt.Sprintf("%.1f - %.1f", le, he), "10 - 56"})
	lo, hi, le, he = span(spmv)
	t.Rows = append(t.Rows, []string{"SPMV", fmt.Sprintf("%d", len(spmv)),
		fmt.Sprintf("%.1f - %.1f", lo, hi), fmt.Sprintf("%.2f - %.2f", le, he), "0.18 - 1.76"})
	return t
}
