package mealib

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`). Model-driven figures
// report their headline numbers as custom metrics (paper-vs-reproduced is
// printed by cmd/mealib-bench and recorded in EXPERIMENTS.md); ablation
// benchmarks quantify the design choices DESIGN.md calls out. Wall-clock
// numbers (kernels, looped shapes, launches) are bench/'s: kernels.host_us,
// loop.*_us and the launch_small workload.

import (
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/apps/stap"
	"mealib/internal/dram"
	"mealib/internal/exp"
	"mealib/internal/phys"
	"mealib/internal/platform"
	"mealib/internal/power"
)

// --- Figures ---

// BenchmarkFigure1LibrarySpeedup measures the library-vs-original gap live.
func BenchmarkFigure1LibrarySpeedup(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure1(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Speedup > best {
				best = r.Speedup
			}
		}
	}
	b.ReportMetric(best, "best-speedup")
}

// BenchmarkFigure9Performance evaluates the 7-op x 4-platform matrix.
func BenchmarkFigure9Performance(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.MEALib
		}
		avg = sum / float64(len(rows))
	}
	b.ReportMetric(avg, "mealib-avg-speedup") // paper: 38
}

// BenchmarkFigure10Energy evaluates the energy-efficiency matrix.
func BenchmarkFigure10Energy(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.MEALib
		}
		avg = sum / float64(len(rows))
	}
	b.ReportMetric(avg, "mealib-avg-energy-gain") // paper: 75
}

// BenchmarkFigure11DesignSpace sweeps both accelerator design spaces.
func BenchmarkFigure11DesignSpace(b *testing.B) {
	var hi float64
	for i := 0; i < b.N; i++ {
		for _, p := range exp.FFTDesignSpace() {
			if e := p.Efficiency(); e > hi {
				hi = e
			}
		}
		_ = exp.SpmvDesignSpace()
	}
	b.ReportMetric(hi, "fft-peak-gflops-per-watt") // paper: 56
}

// BenchmarkFigure12Chaining evaluates the chaining comparison at all sizes.
func BenchmarkFigure12Chaining(b *testing.B) {
	var at256 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure12Chaining(exp.Fig12Sizes())
		if err != nil {
			b.Fatal(err)
		}
		at256 = rows[0].SpeedupHWoverSW
	}
	b.ReportMetric(at256, "hw-chain-speedup-at-256") // paper: 2.5
}

// BenchmarkFigure12Loop evaluates the hardware-loop comparison.
func BenchmarkFigure12Loop(b *testing.B) {
	var at256 float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure12Loop(exp.Fig12Sizes(), 128)
		if err != nil {
			b.Fatal(err)
		}
		at256 = rows[0].SpeedupHWoverSW
	}
	b.ReportMetric(at256, "hw-loop-speedup-at-256") // paper: 9.5
}

// BenchmarkFigure13STAP compares the three STAP data sets.
func BenchmarkFigure13STAP(b *testing.B) {
	var largePerf, largeEDP float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		largePerf = rows[2].PerfGain
		largeEDP = rows[2].EDPGain
	}
	b.ReportMetric(largePerf, "large-perf-gain") // paper: 3.2
	b.ReportMetric(largeEDP, "large-edp-gain")   // paper: 10.2
}

// BenchmarkFigure14Breakdown evaluates the STAP execution breakdown.
func BenchmarkFigure14Breakdown(b *testing.B) {
	var host, dot float64
	for i := 0; i < b.N; i++ {
		bd, err := exp.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		host = bd.HostTimeShare
		dot = bd.AccelTimeShares["DOT"]
	}
	b.ReportMetric(100*host, "host-time-pct") // paper: ~75
	b.ReportMetric(100*dot, "dot-accel-pct")  // paper: ~60
}

// BenchmarkTable5PowerArea evaluates the component census.
func BenchmarkTable5PowerArea(b *testing.B) {
	var w float64
	for i := 0; i < b.N; i++ {
		t := power.MEALib()
		w = float64(t.TotalPower())
		_ = t.TotalArea()
	}
	b.ReportMetric(w, "layer-watts") // paper: 23.85
}

// BenchmarkTable2Workloads evaluates the Table 2 workload matrix on the
// Haswell baseline model.
func BenchmarkTable2Workloads(b *testing.B) {
	h := platform.Haswell()
	loads := platform.StandardWorkloads()
	for i := 0; i < b.N; i++ {
		for _, op := range accel.Ops() {
			if _, err := h.Run(op, loads[op]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDRAMSimulatorStream measures the trace-driven DRAM simulator.
func BenchmarkDRAMSimulatorStream(b *testing.B) {
	sim, err := dram.NewSimulator(dram.HMC3D())
	if err != nil {
		b.Fatal(err)
	}
	var bw float64
	for i := 0; i < b.N; i++ {
		sim.Reset()
		for a := phys.Addr(0); a < 1<<22; a += 256 {
			sim.Access(dram.Request{Addr: a, Size: 256})
		}
		st := sim.Finalize()
		bw = st.Bandwidth().GBs()
	}
	b.ReportMetric(bw, "sim-GB/s")
}

// --- Ablations (DESIGN.md design choices) ---

// BenchmarkAblations reports every row of exp.Ablations (the DESIGN.md
// design choices, each against its removal) as one factor metric.
func BenchmarkAblations(b *testing.B) {
	var rows []exp.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = exp.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Value, strings.Join(strings.Fields(r.Design), "_")+"-x")
	}
}

// BenchmarkSTAPModel evaluates the full application model.
func BenchmarkSTAPModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stap.Compare(stap.Large()); err != nil {
			b.Fatal(err)
		}
	}
}
