package exp

import (
	"math"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/apps/sar"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/platform"
)

func TestTablesRender(t *testing.T) {
	for _, tab := range []*Table{Table1(), Table2(), Table3(), Table4(), Table5()} {
		out := tab.Render()
		if !strings.Contains(out, "==") || len(strings.Split(out, "\n")) < 4 {
			t.Errorf("table %q renders poorly:\n%s", tab.Title, out)
		}
	}
}

func TestTable1CoversSevenOps(t *testing.T) {
	if got := len(Table1().Rows); got != 7 {
		t.Errorf("Table 1 rows = %d, want 7", got)
	}
}

func TestTable5TotalsInRender(t *testing.T) {
	out := Table5().Render()
	// 23.75 + 0.095 = 23.845 W; binary floating point renders 23.84.
	if !strings.Contains(out, "23.84") && !strings.Contains(out, "23.85") {
		t.Errorf("Table 5 must show the ~23.85 W total:\n%s", out)
	}
	if !strings.Contains(out, "41.77") {
		t.Errorf("Table 5 must show the 41.77 mm^2 total:\n%s", out)
	}
}

func TestFigure9PaperAgreement(t *testing.T) {
	rows, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.MEALib-r.PaperMEALib)/r.PaperMEALib > 0.10 {
			t.Errorf("%v: MEALib %.1f vs paper %.1f", r.Op, r.MEALib, r.PaperMEALib)
		}
		// Ordering: MEALib > MSAS > PSAS on every op.
		if !(r.MEALib > r.MSAS && r.MSAS > r.PSAS) {
			t.Errorf("%v: ordering violated: MEALib %.1f MSAS %.1f PSAS %.1f",
				r.Op, r.MEALib, r.MSAS, r.PSAS)
		}
	}
	if avg := avgMEALib(rows); math.Abs(avg-38)/38 > 0.10 {
		t.Errorf("average %.1f, paper 38", avg)
	}
}

func TestFigure10PaperAgreement(t *testing.T) {
	rows, err := Figure10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if math.Abs(r.MEALib-r.PaperMEALib)/r.PaperMEALib > 0.12 {
			t.Errorf("%v: MEALib energy gain %.1f vs paper %.1f", r.Op, r.MEALib, r.PaperMEALib)
		}
	}
	if avg := avgMEALib(rows); math.Abs(avg-75)/75 > 0.10 {
		t.Errorf("average %.1f, paper 75", avg)
	}
}

// TestEngineModelVsFigure9Calibration pins the distance between two answers
// to "what does MEALib cost": the engine's (accel.Config.OpCost through
// Layer.RunModel, which times every launch and feeds bench/'s model clock) and
// the per-op efficiency table Figures 9 and 10 take their MEALib column from
// (platform.MEALib, internal/platform/calibration.go). The two share no code,
// and paper_err_pct sees only the second. Each ratio is the engine's time or
// energy for a one-comp descriptor at the Table 2 size over the table's, held
// to +-0.005: a change to either model moves one, on purpose or not.
// Reconciling them is ROADMAP items 5 and 10.
//
// Gate (check.sh): the model calibration.
func TestEngineModelVsFigure9Calibration(t *testing.T) {
	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	const (
		vecN = 256 << 20 // Table 2, as in platform.StandardDataSets
		matN = 16384
		fftN = 8192
		rggN = 1 << 20
		// Nominal addresses: RunModel never dereferences them.
		a, b, c, d, e = 0x1000_0000, 0x6000_0000, 0xb000_0000, 0xc000_0000, 0xd000_0000
	)
	cases := []struct {
		op             descriptor.OpCode
		loop           uint32
		params         descriptor.Params
		tRatio, eRatio float64 // engine over calibration table
	}{
		{descriptor.OpAXPY, 1, accel.AxpyArgs{N: vecN, Alpha: 1, X: a, Y: b, IncX: 1, IncY: 1}.Params(), 1.000, 1.000},
		{descriptor.OpDOT, 1, accel.DotArgs{N: vecN, X: a, Y: b, Out: c, IncX: 1, IncY: 1}.Params(), 1.000, 1.000},
		{descriptor.OpGEMV, 1, accel.GemvArgs{M: matN, N: matN, Alpha: 1, Beta: 1, A: a, Lda: matN, X: b, Y: c}.Params(), 0.948, 0.947},
		{descriptor.OpSPMV, 1, accel.SpmvArgs{M: rggN, Cols: rggN, NNZ: 13 * rggN, RowPtr: a, ColIdx: b, Values: c, X: d, Y: e}.Params(), 0.638, 0.637},
		{descriptor.OpRESMP, 16384, accel.ResmpArgs{NIn: 4096, NOut: 4096, Src: a, Dst: b,
			LoopStrideSrc: accel.Lin(4 * 4096), LoopStrideDst: accel.Lin(4 * 4096)}.Params(), 0.437, 0.421},
		{descriptor.OpFFT, 1, accel.FFTArgs{N: fftN, HowMany: fftN, Src: a, Dst: a}.Params(), 0.843, 0.842},
		{descriptor.OpRESHP, 1, accel.ReshpArgs{Rows: matN, Cols: matN, Src: a, Dst: b}.Params(), 1.000, 1.000},
	}
	table, loads := platform.MEALib(), platform.StandardWorkloads()
	for _, tc := range cases {
		desc := &descriptor.Descriptor{}
		if tc.loop > 1 {
			if err := desc.AddLoop(tc.loop); err != nil {
				t.Fatal(err)
			}
		}
		if err := desc.AddComp(tc.op, tc.params); err != nil {
			t.Fatal(err)
		}
		desc.AddEndPass()
		if tc.loop > 1 {
			desc.AddEndLoop()
		}
		rep, err := layer.RunModel(desc)
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		want, err := table.Run(tc.op, loads[tc.op])
		if err != nil {
			t.Fatalf("%v: %v", tc.op, err)
		}
		if got := float64(rep.Time) / float64(want.Time); math.Abs(got-tc.tRatio) > 0.005 {
			t.Errorf("%v: engine time / Figure 9 calibration = %.4f, pinned at %.3f", tc.op, got, tc.tRatio)
		}
		if got := float64(rep.Energy) / float64(want.Energy); math.Abs(got-tc.eRatio) > 0.005 {
			t.Errorf("%v: engine energy / Figure 10 calibration = %.4f, pinned at %.3f", tc.op, got, tc.eRatio)
		}
	}
}

func TestFigure11Ranges(t *testing.T) {
	fft := FFTDesignSpace()
	if len(fft) == 0 {
		t.Fatal("empty FFT design space")
	}
	loE, hiE := math.Inf(1), 0.0
	var hiPerf float64
	for _, p := range fft {
		e := p.Efficiency()
		loE = math.Min(loE, e)
		hiE = math.Max(hiE, e)
		hiPerf = math.Max(hiPerf, p.Perf.G())
		if p.Power <= 0 || p.Perf <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
	// Paper: 10-56 GFLOPS/W, peak ~2000+ GFLOPS. Shape: a wide spread with
	// a >1 TFLOPS top end.
	if hiE/loE < 3 {
		t.Errorf("FFT efficiency spread %.1f-%.1f too narrow (paper 10-56)", loE, hiE)
	}
	if hiPerf < 1000 {
		t.Errorf("FFT peak %.0f GFLOPS, want > 1000", hiPerf)
	}

	spmv := SpmvDesignSpace()
	loE, hiE = math.Inf(1), 0.0
	for _, p := range spmv {
		e := p.Efficiency()
		loE = math.Min(loE, e)
		hiE = math.Max(hiE, e)
	}
	// Paper: 0.18-1.76 GFLOPS/W.
	if loE < 0.1 || loE > 0.4 {
		t.Errorf("SPMV low efficiency %.2f, paper 0.18", loE)
	}
	if hiE < 1.2 || hiE > 2.5 {
		t.Errorf("SPMV high efficiency %.2f, paper 1.76", hiE)
	}
}

func TestFigure12Shapes(t *testing.T) {
	sizes := Fig12Sizes()
	chain, err := Figure12Chaining(sizes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range chain {
		if r.SpeedupHWoverSW <= 1 {
			t.Errorf("chaining at %d: HW speedup %.2f must exceed 1", r.Size, r.SpeedupHWoverSW)
		}
	}
	if chain[0].SpeedupHWoverSW <= chain[len(chain)-1].SpeedupHWoverSW {
		t.Errorf("chaining advantage must shrink with size: %.2f -> %.2f",
			chain[0].SpeedupHWoverSW, chain[len(chain)-1].SpeedupHWoverSW)
	}

	loop, err := Figure12Loop(sizes, 128)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 9.5x at 256.
	if loop[0].SpeedupHWoverSW < 6 || loop[0].SpeedupHWoverSW > 14 {
		t.Errorf("loop speedup at 256 = %.1f, paper 9.5", loop[0].SpeedupHWoverSW)
	}
	for i := 1; i < len(loop); i++ {
		if loop[i].SpeedupHWoverSW >= loop[i-1].SpeedupHWoverSW {
			t.Errorf("loop advantage must shrink with size: %.2f then %.2f at %d",
				loop[i-1].SpeedupHWoverSW, loop[i].SpeedupHWoverSW, loop[i].Size)
		}
		if loop[i].SpeedupHWoverSW < 1 {
			t.Errorf("loop at %d: speedup %.2f below 1", loop[i].Size, loop[i].SpeedupHWoverSW)
		}
	}
}

func TestFigure13Bands(t *testing.T) {
	rows, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		if math.Abs(r.PerfGain-r.PaperPerf)/r.PaperPerf > 0.35 {
			t.Errorf("%s: perf gain %.2f vs paper %.1f (>35%% off)", r.DataSet, r.PerfGain, r.PaperPerf)
		}
		if math.Abs(r.EDPGain-r.PaperEDP)/r.PaperEDP > 0.35 {
			t.Errorf("%s: EDP gain %.2f vs paper %.1f (>35%% off)", r.DataSet, r.EDPGain, r.PaperEDP)
		}
		if i > 0 && (r.PerfGain <= rows[i-1].PerfGain || r.EDPGain <= rows[i-1].EDPGain) {
			t.Errorf("%s: gains must grow with data-set size", r.DataSet)
		}
	}
}

func TestFigure14Shares(t *testing.T) {
	b, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if b.HostTimeShare < 0.6 || b.HostTimeShare > 0.95 {
		t.Errorf("host time share %.2f, paper ~0.75", b.HostTimeShare)
	}
	if b.HostEnergyShare < b.HostTimeShare {
		t.Error("host energy share must exceed its time share (active vs accel power)")
	}
	if b.AccelTimeShares["DOT"] < 0.4 {
		t.Errorf("DOT share %.2f, paper ~0.60 (dominant)", b.AccelTimeShares["DOT"])
	}
	var sum float64
	for _, v := range b.AccelTimeShares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("accel time shares sum to %.3f", sum)
	}
	if b.Descriptors != 3 {
		t.Errorf("descriptors = %d", b.Descriptors)
	}
}

func TestFigure1Measured(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation slows code unevenly; measured speedups are meaningless")
	}
	rows, err := Figure1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("benchmarks = %d", len(rows))
	}
	suites := map[string]bool{}
	faster := 0
	var best float64
	for _, r := range rows {
		suites[r.Suite] = true
		if r.Speedup > 1 {
			faster++
		}
		if r.Speedup > best {
			best = r.Speedup
		}
		if r.Naive <= 0 || r.Library <= 0 {
			t.Errorf("%s: degenerate timing", r.Benchmark)
		}
	}
	if len(suites) != 3 {
		t.Errorf("suites = %v, want R/PERFECT/PARSEC", suites)
	}
	// Timing on shared machines is noisy; require the library to win on a
	// majority of kernels and decisively on the algorithmic ones (the
	// FFT-vs-DFT gap dwarfs any scheduler jitter).
	if faster < 4 {
		t.Errorf("library faster on only %d/6 benchmarks", faster)
	}
	if best < 20 {
		t.Errorf("best library speedup %.1f, want >= 20 (FFT vs DFT)", best)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	if _, err := RenderFigure9(); err != nil {
		t.Error(err)
	}
	if _, err := RenderFigure10(); err != nil {
		t.Error(err)
	}
	if tab := RenderFigure11(); len(tab.Rows) != 2 {
		t.Error("figure 11 table must have FFT and SPMV rows")
	}
	if _, err := RenderFigure12(); err != nil {
		t.Error(err)
	}
	if _, err := RenderFigure13(); err != nil {
		t.Error(err)
	}
	tab, err := RenderFigure14()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range tab.Rows {
		if strings.Contains(row[0], "DOT") {
			found = true
		}
	}
	if !found {
		t.Error("figure 14 must break down the DOT accelerator")
	}
	_ = descriptor.OpDOT
}

func TestAblations(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("ablations = %d, want 6 (DESIGN.md list)", len(rows))
	}
	for _, r := range rows {
		if r.Value <= 1 {
			t.Errorf("%s: factor %.2f must exceed 1 (the design must help)", r.Design, r.Value)
		}
	}
	if _, err := RenderAblations(); err != nil {
		t.Error(err)
	}
}

func TestTableJSON(t *testing.T) {
	out, err := Table3().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"title"`) || !strings.Contains(out, "Haswell") {
		t.Errorf("JSON output:\n%s", out)
	}
}

// TestFigure12ModelMatchesFunctionalSAR pins the model-only Figure 12a
// numbers to the functional SAR pipeline at a size the functional path can
// execute: same descriptors, same cost model, so the chaining ratios must
// agree closely.
func TestFigure12ModelMatchesFunctionalSAR(t *testing.T) {
	const n = 256
	rows, err := Figure12Chaining([]int{n})
	if err != nil {
		t.Fatal(err)
	}
	modelRatio := rows[0].SpeedupHWoverSW

	mk := func() *sar.Pipeline {
		rt, err := mealibrt.New(mealibrt.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pl, err := sar.NewPipeline(sar.Square(n), rt)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.LoadRaw(1); err != nil {
			t.Fatal(err)
		}
		return pl
	}
	hwPl := mk()
	hw, err := hwPl.FormImageChained()
	if err != nil {
		t.Fatal(err)
	}
	swPl := mk()
	sw1, sw2, err := swPl.FormImageSeparate()
	if err != nil {
		t.Fatal(err)
	}
	funcRatio := float64(sw1.TotalTime()+sw2.TotalTime()) / float64(hw.TotalTime())
	rel := (funcRatio - modelRatio) / modelRatio
	if rel < -0.25 || rel > 0.25 {
		t.Errorf("functional chaining ratio %.2f vs model %.2f (%.0f%% apart)",
			funcRatio, modelRatio, 100*rel)
	}
}
