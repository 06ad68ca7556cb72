package exp

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/platform"
	"mealib/internal/power"
)

// Table1 reproduces the paper's Table 1: the accelerated MKL functions and
// their accelerators.
func Table1() *Table {
	rows := [][]string{
		{"cblas_saxpy()", "vector scaling and add", "AXPY"},
		{"cblas_sdot()", "dot product", "DOT"},
		{"cblas_sgemv()", "general matrix vector multiply", "GEMV"},
		{"mkl_scsrgemv()", "sparse matrix vector multiply", "SPMV"},
		{"dfsInterpolate1D()", "data resampling", "RESMP"},
		{"fftwf_execute()", "fast Fourier transform", "FFT"},
		{"mkl_simatcopy()", "matrix transpose", "RESHP"},
	}
	return &Table{
		Title:   "Table 1: accelerated memory-bounded MKL operations",
		Columns: []string{"Function", "Description", "Accelerator"},
		Rows:    rows,
	}
}

// Table2 reproduces the evaluation data sets.
func Table2() *Table {
	t := &Table{
		Title:   "Table 2: data sets of the accelerated functions",
		Columns: []string{"Function", "Data set", "Accelerator", "GFLOP", "GB moved"},
	}
	for _, ds := range platform.StandardDataSets() {
		t.Rows = append(t.Rows, []string{
			ds.Function, ds.Descr, ds.Op.String(),
			f(float64(ds.Load.Flops) / 1e9),
			f(float64(ds.Load.Bytes) / 1e9),
		})
	}
	return t
}

// Table3 reproduces the platform comparison table.
func Table3() *Table {
	t := &Table{
		Title:   "Table 3: hardware platforms",
		Columns: []string{"Platform", "Cores", "Frequency", "Bandwidth", "SP peak"},
	}
	for _, p := range platform.All() {
		t.Rows = append(t.Rows, []string{
			p.Name, fmt.Sprintf("%d", p.Cores), p.Freq.String(),
			p.MemBW.String(), p.Peak.String(),
		})
	}
	return t
}

// Table4 reproduces the STAP library-call inventory.
func Table4() *Table {
	return &Table{
		Title:   "Table 4: library functions used in STAP",
		Columns: []string{"Function", "Purpose", "Type", "Executes on"},
		Rows: [][]string{
			{"fftwf_execute()", "data copy, FFT", "memory-bounded", "RESHP+FFT accelerators"},
			{"cblas_cherk()", "rank-k matrix update", "compute-bounded", "host multicore"},
			{"cblas_ctrsm()", "triangular matrix solver", "compute-bounded", "host multicore"},
			{"cblas_cdotc_sub()", "inner product", "memory-bounded", "DOT accelerator"},
			{"cblas_saxpy()", "vector scaling", "memory-bounded", "AXPY accelerator"},
		},
	}
}

// Table5 reproduces the accelerator-layer power and area census, with the
// paper's published values as the reference column.
func Table5() *Table {
	tab := power.MEALib()
	t := &Table{
		Title:   "Table 5: accelerator layer power and area (32 nm)",
		Columns: []string{"Component", "Power", "Area mm^2", "Area %"},
	}
	for _, op := range accel.Ops() {
		c, _ := accel.SynthesisOf(op) // the op table declares every op Ops returns
		area := "-"
		pct := "-"
		if c.Area > 0 {
			area = fmt.Sprintf("%.2f", c.Area)
			pct = fmt.Sprintf("%.2f", 100*c.Area/tab.LayerArea)
		}
		t.Rows = append(t.Rows, []string{op.String(), c.Power.String(), area, pct})
	}
	t.Rows = append(t.Rows, []string{tab.NoC.Name, tab.NoC.Power.String(),
		fmt.Sprintf("%.2f", tab.NoC.Area), fmt.Sprintf("%.2f", 100*tab.NoC.Area/tab.LayerArea)})
	t.Rows = append(t.Rows, []string{tab.TSVs.Name, "-",
		fmt.Sprintf("%.2f", tab.TSVs.Area), fmt.Sprintf("%.2f", 100*tab.TSVs.Area/tab.LayerArea)})
	t.Rows = append(t.Rows, []string{"Total", fmt.Sprintf("%.2fW", float64(tab.TotalPower())),
		fmt.Sprintf("%.2f", tab.TotalArea()), fmt.Sprintf("%.2f", 100*tab.AreaFraction())})
	t.Notes = append(t.Notes,
		"paper totals: 23.85 W, 41.77 mm^2, 61.43% of the 68 mm^2 layer",
		fmt.Sprintf("DRAM logic layer extra (MUX + reshape unit): %v, %.2f mm^2",
			tab.LogicLayerExtra.Power, tab.LogicLayerExtra.Area))
	return t
}
