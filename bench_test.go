package mealib

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`). Model-driven figures
// report their headline numbers as custom metrics (paper-vs-reproduced is
// printed by cmd/mealib-bench and recorded in EXPERIMENTS.md); ablation
// benchmarks quantify the design choices DESIGN.md calls out. Wall-clock
// numbers (kernels, looped shapes, launches) are bench/'s: kernels.host_us,
// loop.*_us and the launch_small workload.

import (
	"math/rand"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/apps/stap"
	"mealib/internal/descriptor"
	"mealib/internal/dram"
	"mealib/internal/exp"
	"mealib/internal/phys"
	"mealib/internal/platform"
	"mealib/internal/power"
	"mealib/internal/units"
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
		for _, op := range platform.Ops() {
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

// BenchmarkAblationChaining quantifies hardware chaining vs DRAM
// round-tripping for the SAR pass (design choice 1).
func BenchmarkAblationChaining(b *testing.B) {
	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		b.Fatal(err)
	}
	// An LM-resident intermediate (4 MiB), where chaining removes the whole
	// DRAM round trip; oversized intermediates spill and benefit less.
	elems := int64(1) << 19
	resmp := accel.ResmpArgs{
		NIn: elems + elems/4, NOut: elems, Kind: accel.ResmpComplex,
		Src: 0x1000_0000, Dst: 0x2000_0000,
	}.Params()
	fft := accel.FFTArgs{N: 64, HowMany: elems / 64, Src: 0x2000_0000, Dst: 0x2000_0000}.Params()
	chained := &descriptor.Descriptor{}
	_ = chained.AddComp(descriptor.OpRESMP, resmp)
	_ = chained.AddComp(descriptor.OpFFT, fft)
	chained.AddEndPass()
	separate := &descriptor.Descriptor{}
	_ = separate.AddComp(descriptor.OpRESMP, resmp)
	separate.AddEndPass()
	_ = separate.AddComp(descriptor.OpFFT, fft)
	separate.AddEndPass()
	var ratio float64
	for i := 0; i < b.N; i++ {
		rc, err := layer.RunModel(chained)
		if err != nil {
			b.Fatal(err)
		}
		rs, err := layer.RunModel(separate)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(rs.Time) / float64(rc.Time)
	}
	b.ReportMetric(ratio, "chain-accel-speedup")
}

// BenchmarkAblationLoopCompaction quantifies LOOP descriptors vs per-call
// descriptors (design choice 2).
func BenchmarkAblationLoopCompaction(b *testing.B) {
	rows, err := exp.Figure12Loop([]int{512}, 128)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = rows[0].SpeedupHWoverSW
	}
	b.ReportMetric(ratio, "loop-compaction-speedup")
}

// BenchmarkAblationTiles compares 1 tile vs 16 tiles exploiting vault
// bandwidth (design choice 3).
func BenchmarkAblationTiles(b *testing.B) {
	mk := func(tiles int) *accel.Config {
		cfg := accel.MEALibConfig()
		cfg.Tiles = tiles
		// One tile reaches only its local vault's share of the bandwidth.
		cfg.StreamEfficiency = 0.95 * float64(tiles) / 16
		return cfg
	}
	w := accel.Work{InStream: 1 * units.GiB, Flops: 1e9}
	var ratio float64
	for i := 0; i < b.N; i++ {
		one, err := mk(1).OpCost(descriptor.OpAXPY, w)
		if err != nil {
			b.Fatal(err)
		}
		sixteen, err := mk(16).OpCost(descriptor.OpAXPY, w)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(one.Time) / float64(sixteen.Time)
	}
	b.ReportMetric(ratio, "tiled-speedup")
}

// BenchmarkAblationRowBuffer compares streaming efficiency across DRAM
// row-buffer sizes (design choice 4).
func BenchmarkAblationRowBuffer(b *testing.B) {
	run := func(rowBytes units.Bytes) dram.Stats {
		cfg := dram.HMC3D()
		cfg.RowBytes = rowBytes
		sim, err := dram.NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for a := phys.Addr(0); a < 1<<21; a += 256 {
			sim.Access(dram.Request{Addr: a, Size: 256})
		}
		return sim.Finalize()
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		small := run(64)
		big := run(512)
		ratio = float64(small.Energy()) / float64(big.Energy())
	}
	b.ReportMetric(ratio, "small-row-energy-overhead")
}

// benchVec returns two seeded random vectors of n elements.
func benchVec(n int) ([]float32, []float32) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float32, n)
	y := make([]float32, n)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
		y[i] = float32(rng.NormFloat64())
	}
	return x, y
}

// BenchmarkAblationCoherenceFlush quantifies the wbinvd invocation cost
// (design choice 5) by comparing dirty- and clean-cache launches.
func BenchmarkAblationCoherenceFlush(b *testing.B) {
	sys, err := New()
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 18
	x, _ := Alloc[float32](sys, n)
	y, _ := Alloc[float32](sys, n)
	xs, ys := benchVec(n)
	_ = x.Set(xs)
	_ = y.Set(ys)
	var dirtyOverhead, cleanOverhead float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		_ = x.Set(xs) // dirty the cache model
		b.StartTimer()
		r1, err := sys.Saxpy(1, x, y)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sys.Saxpy(1, x, y) // clean launch
		if err != nil {
			b.Fatal(err)
		}
		dirtyOverhead = float64(r1.Time - r1.AccelTime)
		cleanOverhead = float64(r2.Time - r2.AccelTime)
	}
	b.ReportMetric(dirtyOverhead/cleanOverhead, "dirty-vs-clean-overhead")
}

// BenchmarkSTAPModel evaluates the full application model.
func BenchmarkSTAPModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := stap.Compare(stap.Large()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRemoteStack quantifies LMS vs RMS buffer placement
// (paper §3.3: accelerator data should reside in its local stack).
func BenchmarkAblationRemoteStack(b *testing.B) {
	sys, err := New(WithStacks(2))
	if err != nil {
		b.Fatal(err)
	}
	n := 1 << 18
	xs, ys := benchVec(n)
	mk := func(stack int) (*Float32Buffer, *Float32Buffer) {
		x, err := AllocOn[float32](sys, stack, n)
		if err != nil {
			b.Fatal(err)
		}
		y, err := AllocOn[float32](sys, stack, n)
		if err != nil {
			b.Fatal(err)
		}
		_ = x.Set(xs)
		_ = y.Set(ys)
		return x, y
	}
	lx, ly := mk(0)
	rx, ry := mk(1)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		local, err := sys.Saxpy(1, lx, ly)
		if err != nil {
			b.Fatal(err)
		}
		remote, err := sys.Saxpy(1, rx, ry)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(remote.AccelTime) / float64(local.AccelTime)
	}
	b.ReportMetric(ratio, "remote-vs-local-slowdown")
}
