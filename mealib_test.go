package mealib

import (
	"math"
	"math/cmplx"
	"math/rand"
	"os"
	"strings"
	"testing"

	"mealib/internal/kernels"
	"mealib/internal/sparse"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s, err := New()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewWithOptions(t *testing.T) {
	s, err := New(WithDataSpace(64<<20), WithAccelerator(AcceleratorConfig()), WithHost(HaswellHost()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Runtime() == nil {
		t.Fatal("runtime must be exposed")
	}
	// Allocation beyond the shrunken data space must fail.
	if _, err := Alloc[float32](s, 1<<26); err == nil {
		t.Error("allocation beyond the 64 MiB data space must fail")
	}
}

func TestBufferValidation(t *testing.T) {
	s := newSystem(t)
	if _, err := Alloc[float32](s, 0); err == nil {
		t.Error("zero-size buffer must fail")
	}
	b, err := Alloc[float32](s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Set(make([]float32, 9)); err == nil {
		t.Error("oversized Set must fail")
	}
	if err := b.SetAt(7, []float32{1, 2}); err == nil {
		t.Error("out-of-range SetAt must fail")
	}
	if _, err := b.Get(6, 3); err == nil {
		t.Error("out-of-range Get must fail")
	}
	if err := b.Free(s); err != nil {
		t.Fatal(err)
	}
}

// TestAllocRefusesWrappedCounts: a count whose byte size does not fit is
// refused. 4·(2^62+1) wrapped to 4 bytes, and the allocation returned a
// buffer whose Len claimed 2^62+1 elements over those 4 bytes.
func TestAllocRefusesWrappedCounts(t *testing.T) {
	s := newSystem(t)
	for _, n := range []int{1<<62 + 1, 1<<61 + 1, math.MaxInt} {
		if b, err := Alloc[float32](s, n); err == nil {
			t.Errorf("Alloc[float32](%d) returned a buffer of Len %d", n, b.Len())
		}
		if b, err := AllocOn[complex64](s, 0, n); err == nil {
			t.Errorf("AllocOn[complex64](0, %d) returned a buffer of Len %d", n, b.Len())
		}
	}
}

// TestAccessorsRefuseOverflowingRanges: an element offset and count whose sum
// or byte size does not fit an int are refused with an error, for each
// accessor. Get(1<<62, 1<<62) used to pass its bounds check with a wrapped
// sum and panic in makeslice.
func TestAccessorsRefuseOverflowingRanges(t *testing.T) {
	s := newSystem(t)
	f, err := Alloc[float32](s, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Alloc[complex64](s, 8)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{1 << 62, 1 << 62}, {0, 1 << 62}, {0, 1 << 61}, {1, math.MaxInt}, {math.MaxInt, 1}, {0, -1}, {-1, 1}}
	for _, tc := range []struct {
		name   string
		access func(off, n int) error
	}{
		{"Float32Buffer.Get", func(off, n int) error { _, err := f.Get(off, n); return err }},
		{"Complex64Buffer.Get", func(off, n int) error { _, err := c.Get(off, n); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, r := range ranges {
				err := func() (err error) {
					defer func() {
						if v := recover(); v != nil {
							t.Errorf("%d elements at %d: panicked: %v", r[1], r[0], v)
						}
					}()
					return tc.access(r[0], r[1])
				}()
				if err == nil {
					t.Errorf("%d elements at %d: no error", r[1], r[0])
				}
			}
			if err := tc.access(0, 8); err != nil {
				t.Errorf("8 elements at 0: %v", err)
			}
		})
	}
}

func TestSaxpyAndDot(t *testing.T) {
	s := newSystem(t)
	n := 1024
	rng := rand.New(rand.NewSource(1))
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
		ys[i] = float32(rng.NormFloat64())
	}
	x, _ := Alloc[float32](s, n)
	y, _ := Alloc[float32](s, n)
	if err := x.Set(xs); err != nil {
		t.Fatal(err)
	}
	if err := y.Set(ys); err != nil {
		t.Fatal(err)
	}
	run, err := s.Saxpy(2, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if run.Time <= 0 || run.Energy <= 0 || run.Comps != 1 {
		t.Errorf("run = %+v", run)
	}
	got, _ := y.All()
	for i := range got {
		want := ys[i] + 2*xs[i]
		if got[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
	dot, _, err := s.Sdot(x, y)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := range xs {
		want += float64(xs[i]) * float64(got[i])
	}
	if math.Abs(float64(dot)-want) > 1e-2*math.Abs(want) {
		t.Errorf("dot = %v, want %v", dot, want)
	}
	if s.Stats().Invocations != 2 {
		t.Errorf("invocations = %d", s.Stats().Invocations)
	}
}

func TestSgemv(t *testing.T) {
	s := newSystem(t)
	a, _ := Alloc[float32](s, 4)
	x, _ := Alloc[float32](s, 2)
	y, _ := Alloc[float32](s, 2)
	_ = a.Set([]float32{1, 2, 3, 4})
	_ = x.Set([]float32{1, 1})
	if _, err := s.Sgemv(2, 2, 1, a, x, 0, y); err != nil {
		t.Fatal(err)
	}
	got, _ := y.All()
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("y = %v", got)
	}
	if _, err := s.Sgemv(3, 2, 1, a, x, 0, y); err == nil {
		t.Error("undersized matrix must fail")
	}
}

func TestSpmvOnRGG(t *testing.T) {
	s := newSystem(t)
	m, err := sparse.RGG(300, 6, 11)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := s.UploadCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := Alloc[float32](s, m.Cols)
	y, _ := Alloc[float32](s, m.Rows)
	ones := make([]float32, m.Cols)
	for i := range ones {
		ones[i] = 1
	}
	_ = x.Set(ones)
	if _, err := s.Spmv(csr, x, y); err != nil {
		t.Fatal(err)
	}
	got, _ := y.All()
	for i := range got {
		deg := float32(m.RowPtr[i+1] - m.RowPtr[i])
		if got[i] != deg {
			t.Fatalf("y[%d] = %v, want degree %v", i, got[i], deg)
		}
	}
}

func TestFFTAndTranspose(t *testing.T) {
	s := newSystem(t)
	n := 64
	data, _ := Alloc[complex64](s, n)
	imp := make([]complex64, n)
	imp[0] = 1
	_ = data.Set(imp)
	if _, err := s.FFT(data, n, 1, false); err != nil {
		t.Fatal(err)
	}
	spec, _ := data.All()
	for i, v := range spec {
		if cmplx.Abs(complex128(v)-1) > 1e-4 {
			t.Fatalf("bin %d = %v", i, v)
		}
	}
	if _, err := s.FFT(data, n, 2, false); err == nil {
		t.Error("overlarge batch must fail")
	}

	src, _ := Alloc[float32](s, 6)
	dst, _ := Alloc[float32](s, 6)
	_ = src.Set([]float32{1, 2, 3, 4, 5, 6})
	if _, err := s.Transpose(2, 3, src, dst); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.All()
	want := []float32{1, 4, 2, 5, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transpose[%d] = %v", i, got[i])
		}
	}
}

func TestResample(t *testing.T) {
	s := newSystem(t)
	src, _ := Alloc[float32](s, 4)
	dst, _ := Alloc[float32](s, 7)
	_ = src.Set([]float32{0, 2, 4, 6})
	if _, err := s.Resample(src, dst, false); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.All()
	for i, v := range got {
		if math.Abs(float64(v)-float64(i)) > 1e-5 {
			t.Fatalf("resample[%d] = %v", i, v)
		}
	}
}

func TestPlanBuilderChainAndLoop(t *testing.T) {
	s := newSystem(t)
	// Chained transpose+FFT over a small image, then a loop of dots.
	n := 16
	src, _ := Alloc[complex64](s, n*n)
	dst, _ := Alloc[complex64](s, n*n)
	rng := rand.New(rand.NewSource(5))
	img := make([]complex64, n*n)
	for i := range img {
		img[i] = complex(float32(rng.NormFloat64()), 0)
	}
	_ = src.Set(img)
	run, err := s.NewPlan().
		Pass(TransposeC64Comp(n, n, src, dst), FFTComp(n, n, dst, false, nil)).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Comps != 2 {
		t.Errorf("comps = %d", run.Comps)
	}
	// Reference.
	want := make([]complex64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[j*n+i] = img[i*n+j]
		}
	}
	plan, _ := kernels.NewFFTPlan(n, kernels.Forward)
	if err := kernels.FFTBatch(plan, want, n); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.All()
	for i := range want {
		if cmplx.Abs(complex128(got[i]-want[i])) > 1e-3 {
			t.Fatalf("chained[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// Loop: 4 complex dots with strided buffers.
	iters, l := 4, 8
	x, _ := Alloc[complex64](s, l)
	ybuf, _ := Alloc[complex64](s, l*iters)
	out, _ := Alloc[complex64](s, iters)
	xs := make([]complex64, l)
	for i := range xs {
		xs[i] = 1
	}
	_ = x.Set(xs)
	ys := make([]complex64, l*iters)
	for k := 0; k < iters; k++ {
		for i := 0; i < l; i++ {
			ys[k*l+i] = complex(float32(k+1), 0)
		}
	}
	_ = ybuf.Set(ys)
	run, err = s.NewPlan().
		Loop([]int{iters}, CdotcComp(l, x, ybuf, out, 1, nil, Strides{l}, Strides{1})).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Comps != int64(iters) {
		t.Errorf("loop comps = %d", run.Comps)
	}
	res, _ := out.All()
	for k := 0; k < iters; k++ {
		want := complex64(complex(float32(l*(k+1)), 0))
		if res[k] != want {
			t.Errorf("dot %d = %v, want %v", k, res[k], want)
		}
	}
}

func TestPlanReusableAcrossExecutes(t *testing.T) {
	s := newSystem(t)
	n := 32
	x, _ := Alloc[float32](s, n)
	y, _ := Alloc[float32](s, n)
	ones := make([]float32, n)
	for i := range ones {
		ones[i] = 1
	}
	_ = x.Set(ones)
	_ = y.Set(make([]float32, n))
	ip, err := s.NewPlan().Pass(SaxpyComp(n, 1, x, y, nil, nil)).Build()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		if _, err := ip.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ip.Destroy(); err != nil {
		t.Fatal(err)
	}
	got, _ := y.All()
	if got[0] != 3 {
		t.Errorf("y[0] = %v after 3 executions", got[0])
	}
}

func TestPlanBuilderErrorsPropagate(t *testing.T) {
	s := newSystem(t)
	if _, err := s.NewPlan().Build(); err == nil {
		t.Error("empty plan must fail")
	}
	x, _ := Alloc[float32](s, 4)
	if _, err := s.NewPlan().Loop([]int{0}, SaxpyComp(4, 1, x, x, nil, nil)).Run(); err == nil {
		t.Error("zero-count loop must fail")
	}
	// A count the header's 32-bit fields cannot hold fails the build; it does
	// not wrap to 2^32-1 iterations, to 3, or to a "zero-iteration" loop.
	for _, counts := range [][]int{{-1}, {1<<32 + 3}, {1 << 32}, {2, -1}} {
		if _, err := s.NewPlan().Loop(counts, SaxpyComp(4, 1, x, x, nil, nil)).Build(); err == nil || !strings.Contains(err.Error(), "32-bit count field") {
			t.Errorf("Loop(%v) built (%v); want the count refused", counts, err)
		}
		if _, err := s.NewPlan().ChainLoop(counts, SaxpyComp(4, 1, x, x, nil, nil)).Build(); err == nil || !strings.Contains(err.Error(), "32-bit count field") {
			t.Errorf("ChainLoop(%v) built (%v); want the count refused", counts, err)
		}
	}
}

func TestCompileCFacade(t *testing.T) {
	src, err := os.ReadFile("internal/ccompiler/testdata/stap.c")
	if err != nil {
		t.Fatal(err)
	}
	syms := map[string]int64{
		"N_CHAN": 2, "N_PULSES": 4, "N_RANGE": 8, "N_DOP": 4,
		"N_BLOCKS": 2, "N_STEERING": 2, "TDOF": 2,
		"TDOF_NCHAN": 4, "TBS": 4, "CELL_DIM": 16,
		"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0,
	}
	prog, err := CompileC(string(src), syms)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Descriptors() != 3 {
		t.Fatalf("descriptors = %d", prog.Descriptors())
	}
	if prog.CoveredCalls() != 2+4*2*2*4+4*2 {
		t.Errorf("covered calls = %d", prog.CoveredCalls())
	}
	if len(prog.BufferNames()) < 8 {
		t.Errorf("buffer names = %v", prog.BufferNames())
	}
	s := newSystem(t)
	d := 2 * 4 * 8
	alloc := func(n int, complex bool) BufferBinding {
		if complex {
			b, err := Alloc[complex64](s, n)
			if err != nil {
				t.Fatal(err)
			}
			_ = b.Set(make([]complex64, n))
			return Bind(b)
		}
		b, err := Alloc[float32](s, n)
		if err != nil {
			t.Fatal(err)
		}
		_ = b.Set(make([]float32, n))
		return Bind(b)
	}
	buffers := map[string]BufferBinding{
		"datacube":                    alloc(d, true),
		"datacube_pulse_major_padded": alloc(d, true),
		"datacube_doppler_major":      alloc(d, true),
		"adaptive_weights":            alloc(4*2*2*4, true),
		"snapshots":                   alloc(4*2*16, true),
		"prods":                       alloc(4*2*2*4, true),
		"gamma_weight":                alloc(4*2*4, false),
		"acc_weight":                  alloc(4, false),
	}
	runs, err := prog.Execute(s, buffers, syms)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 {
		t.Errorf("runs = %d", len(runs))
	}
}

func TestRemoteStackPlacement(t *testing.T) {
	// Paper §3.3: data processed by an accelerator should reside in its
	// Local Memory Stack; remote placement crosses the inter-stack links.
	s, err := New(WithStacks(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 20
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = 1
	}

	run := func(stack int) *Run {
		x, err := AllocOn[float32](s, stack, n)
		if err != nil {
			t.Fatal(err)
		}
		y, err := AllocOn[float32](s, stack, n)
		if err != nil {
			t.Fatal(err)
		}
		_ = x.Set(xs)
		_ = y.Set(make([]float32, n))
		r, err := s.Saxpy(1, x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := y.Get(0, 1)
		if got[0] != 1 {
			t.Fatalf("stack %d: wrong result %v", stack, got[0])
		}
		return r
	}

	local := run(0)
	remote := run(2)
	// Remote buffers stream over the 40 GB/s links instead of the 510 GB/s
	// internal bandwidth: the accelerator time must grow substantially.
	ratio := float64(remote.AccelTime) / float64(local.AccelTime)
	if ratio < 3 {
		t.Errorf("remote/local accelerator time = %.2f, want >= 3 (510 vs 40 GB/s)", ratio)
	}
	if remote.AccelEnergy <= local.AccelEnergy {
		t.Error("remote placement must also cost link energy")
	}
}

func TestAllocOnInvalidStack(t *testing.T) {
	s := newSystem(t) // single stack
	if _, err := AllocOn[float32](s, 1, 16); err == nil {
		t.Error("allocation on a nonexistent stack must fail")
	}
	if _, err := AllocOn[complex64](s, -1, 16); err == nil {
		t.Error("negative stack must fail")
	}
}

func TestCdotcFacade(t *testing.T) {
	s := newSystem(t)
	x, _ := Alloc[complex64](s, 2)
	y, _ := Alloc[complex64](s, 2)
	_ = x.Set([]complex64{1 + 2i, 3 - 1i})
	_ = y.Set([]complex64{2, 1 + 1i})
	got, run, err := s.Cdotc(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(complex128(got)-4) > 1e-5 {
		t.Errorf("cdotc = %v, want 4", got)
	}
	if run.Comps != 1 {
		t.Errorf("comps = %d", run.Comps)
	}
	short, _ := Alloc[complex64](s, 1)
	if _, _, err := s.Cdotc(x, short); err == nil {
		t.Error("length mismatch must fail")
	}
}

func TestTransposeC64Facade(t *testing.T) {
	s := newSystem(t)
	src, _ := Alloc[complex64](s, 6)
	dst, _ := Alloc[complex64](s, 6)
	_ = src.Set([]complex64{1, 2i, 3, 4, 5i, 6})
	if _, err := s.TransposeC64(2, 3, src, dst); err != nil {
		t.Fatal(err)
	}
	got, _ := dst.All()
	want := []complex64{1, 4, 2i, 5i, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dst[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := s.TransposeC64(3, 3, src, dst); err == nil {
		t.Error("undersized buffers must fail")
	}
}

func TestBufferFreeAndAccessors(t *testing.T) {
	s := newSystem(t)
	c, err := Alloc[complex64](s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Free(s); err != nil {
		t.Fatal(err)
	}
	i32, err := Alloc[int32](s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if i32.Len() != 4 {
		t.Errorf("len = %d", i32.Len())
	}
	if err := i32.Set([]int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got, err := i32.All()
	if err != nil || got[3] != 4 {
		t.Errorf("All = %v, %v", got, err)
	}
	if err := i32.Set(make([]int32, 5)); err == nil {
		t.Error("oversized Set must fail")
	}
	if err := i32.Free(s); err != nil {
		t.Fatal(err)
	}
	if _, err := Alloc[int32](s, 0); err == nil {
		t.Error("zero-size int32 buffer must fail")
	}
}

func TestFFTCompIntoAndResampleComp(t *testing.T) {
	s := newSystem(t)
	n := 16
	src, _ := Alloc[complex64](s, n)
	dst, _ := Alloc[complex64](s, n)
	imp := make([]complex64, n)
	imp[0] = 1
	_ = src.Set(imp)
	run, err := s.NewPlan().Pass(FFTCompInto(n, 1, src, dst, false, nil)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Comps != 1 {
		t.Errorf("comps = %d", run.Comps)
	}
	spec, _ := dst.All()
	for i, v := range spec {
		if cmplx.Abs(complex128(v)-1) > 1e-4 {
			t.Fatalf("bin %d = %v", i, v)
		}
	}
	// Complex resample comp (cubic path).
	raw, _ := Alloc[complex64](s, 8)
	out, _ := Alloc[complex64](s, 16)
	vals := make([]complex64, 8)
	for i := range vals {
		vals[i] = complex(float32(i), -float32(i))
	}
	_ = raw.Set(vals)
	if _, err := s.NewPlan().Pass(ResampleC64Comp(8, 16, raw, out, true, nil, nil)).Run(); err != nil {
		t.Fatal(err)
	}
	res, _ := out.All()
	if real(res[0]) != 0 || cmplx.Abs(complex128(res[15]-vals[7])) > 1e-4 {
		t.Errorf("resample endpoints: %v ... %v", res[0], res[15])
	}
}

func TestCompiledProgramAccessors(t *testing.T) {
	prog, err := CompileC(`
void f(void) {
  float *x; float *y;
  x = malloc(64); y = malloc(64);
  cblas_saxpy(16, 2.0f, x, 1, y, 1);
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Source(), "mealib_mem_alloc") {
		t.Error("Source must expose the transformed program")
	}
	if !strings.Contains(prog.Summary(), "descriptors") {
		t.Error("Summary must describe the compilation")
	}
	// Int32 bindings participate in Execute.
	s := newSystem(t)
	xb, _ := Alloc[float32](s, 16)
	yb, _ := Alloc[float32](s, 16)
	_ = xb.Set(make([]float32, 16))
	_ = yb.Set(make([]float32, 16))
	ib, _ := Alloc[int32](s, 4)
	bindings := map[string]BufferBinding{
		"x": Bind(xb), "y": Bind(yb), "unused": Bind(ib),
	}
	if _, err := prog.Execute(s, bindings, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPortability is the paper's thesis in miniature: the same program runs
// unchanged against differently-configured hardware (a half-speed stack, a
// differently-sized layer), producing bit-identical results while the
// modelled time and energy shift with the hardware.
func TestPortability(t *testing.T) {
	run := func(opts ...Option) ([]float32, *Run) {
		s, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 << 14
		x, _ := Alloc[float32](s, n)
		y, _ := Alloc[float32](s, n)
		xs := make([]float32, n)
		ys := make([]float32, n)
		for i := range xs {
			xs[i] = float32(i%97) * 0.25
			ys[i] = float32(i%31) * 0.5
		}
		_ = x.Set(xs)
		_ = y.Set(ys)
		run, err := s.Saxpy(1.5, x, y)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := y.All()
		return out, run
	}

	fast, fastRun := run()
	slowCfg := AcceleratorConfig()
	slowCfg.DRAM.ChannelBW /= 4 // a quarter-bandwidth stack
	slow, slowRun := run(WithAccelerator(slowCfg))

	for i := range fast {
		if fast[i] != slow[i] {
			t.Fatalf("results diverge across platforms at %d", i)
		}
	}
	if slowRun.AccelTime <= fastRun.AccelTime {
		t.Errorf("quarter-bandwidth stack must be slower: %v vs %v",
			slowRun.AccelTime, fastRun.AccelTime)
	}
}

func TestSubmitWaitAndMaxInFlight(t *testing.T) {
	s, err := New(WithMaxInFlight(1))
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	mkPlan := func() (*InstalledPlan, *Float32Buffer) {
		x, _ := Alloc[float32](s, n)
		y, _ := Alloc[float32](s, n)
		ones := make([]float32, n)
		for i := range ones {
			ones[i] = 1
		}
		_ = x.Set(ones)
		_ = y.Set(make([]float32, n))
		ip, err := s.NewPlan().Pass(SaxpyComp(n, 2, x, y, nil, nil)).Build()
		if err != nil {
			t.Fatal(err)
		}
		return ip, y
	}
	ipA, yA := mkPlan()
	ipB, yB := mkPlan()
	// Submit both before waiting on either: with MaxInFlight(1) the second
	// is admitted only after the first retires, but both must complete.
	prA, err := ipA.Submit()
	if err != nil {
		t.Fatal(err)
	}
	prB, err := ipB.Submit()
	if err != nil {
		t.Fatal(err)
	}
	runB, err := prB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	runA, err := prA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if runA.Comps != 1 || runB.Comps != 1 {
		t.Errorf("comps = %d, %d; want 1, 1", runA.Comps, runB.Comps)
	}
	for _, y := range []*Float32Buffer{yA, yB} {
		got, err := y.All()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 2 || got[n-1] != 2 {
			t.Errorf("y = %v..%v, want 2", got[0], got[n-1])
		}
	}
}
