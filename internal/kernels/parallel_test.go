package kernels

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// withProcs runs fn under an elevated GOMAXPROCS so the goroutine fan-out
// paths execute even on single-core test machines.
func withProcs(t *testing.T, procs int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestParallelPathsMatchSerial forces the multi-goroutine code paths of
// every optimized kernel and checks them against the single-worker results.
func TestParallelPathsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := minParallel * 4 // large enough to fan out
	x := randVec(rng, n)
	y := randVec(rng, n)

	serialY := append([]float32(nil), y...)
	if err := Saxpy(n, 1.5, x, 1, serialY, 1); err != nil { // GOMAXPROCS may be 1 here
		t.Fatal(err)
	}
	withProcs(t, 4, func() {
		parY := append([]float32(nil), y...)
		if err := Saxpy(n, 1.5, x, 1, parY, 1); err != nil {
			t.Fatal(err)
		}
		for i := range serialY {
			if serialY[i] != parY[i] {
				t.Fatalf("saxpy diverges at %d", i)
			}
		}

		// Row-parallel GEMV, SPMV and transpose on matrices big enough to
		// fan out.
		m := minParallel + 3
		k := 8
		a := randVec(rng, m*k)
		xs := randVec(rng, k)
		y1 := make([]float32, m)
		y2 := make([]float32, m)
		if err := sgemvNaive(m, k, 1, a, k, xs, 0, y1); err != nil {
			t.Fatal(err)
		}
		if err := Sgemv(m, k, 1, a, k, xs, 0, y2); err != nil {
			t.Fatal(err)
		}
		for i := range y1 {
			if !almostEqual(float64(y1[i]), float64(y2[i]), 1e-3) {
				t.Fatalf("gemv diverges at %d", i)
			}
		}

		rowPtr := make([]int32, m+1)
		var colIdx []int32
		var values []float32
		for i := 0; i < m; i++ {
			colIdx = append(colIdx, int32(i%k))
			values = append(values, 1)
			rowPtr[i+1] = int32(len(values))
		}
		s1 := spmvScalar(m, rowPtr, colIdx, values, xs, SemiringPlusTimes, 0)
		s2 := make([]float32, m)
		if err := SpmvCSR(m, rowPtr, colIdx, values, xs, s2); err != nil {
			t.Fatal(err)
		}
		for i := range s1 {
			if math.Float32bits(s1[i]) != math.Float32bits(s2[i]) {
				t.Fatalf("spmv diverges at %d", i)
			}
		}

		// 300x200 is 70 tiles, ragged on both far edges: 18 chunks of whole
		// tiles, the last of two.
		tm, tn := 300, 200
		if grain%tileElems != 0 || blocks(tm)*blocks(tn)*tileElems < minParallel {
			t.Fatalf("a %dx%d transpose does not fan out in chunks of whole tiles", tm, tn)
		}
		src := randVec(rng, tm*tn)
		d1 := make([]float32, tm*tn)
		d2 := make([]float32, tm*tn)
		if err := TransposeNaive(tm, tn, src, d1); err != nil {
			t.Fatal(err)
		}
		if err := Transpose(tm, tn, src, d2); err != nil {
			t.Fatal(err)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("transpose diverges at %d", i)
			}
		}

		rs := make([]float32, 2*n)
		rsN := make([]float32, 2*n)
		if err := resampleNaive(x, rsN, InterpCubic); err != nil {
			t.Fatal(err)
		}
		if err := Resample(x, rs, InterpCubic); err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			if rs[i] != rsN[i] {
				t.Fatalf("resample diverges at %d", i)
			}
		}

		// Batched FFT fans out across transforms.
		batch, fl := 64, 1024
		data := randCVec(rng, batch*fl)
		want := append([]complex64(nil), data...)
		plan, err := NewFFTPlan(fl, Forward)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batch; b++ {
			if err := plan.Execute(want[b*fl : (b+1)*fl]); err != nil {
				t.Fatal(err)
			}
		}
		plan2, err := NewFFTPlan(fl, Forward)
		if err != nil {
			t.Fatal(err)
		}
		if err := FFTBatch(plan2, data, batch); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(data, want); d > 1e-2 {
			t.Errorf("batched fft diverges by %g", d)
		}

		// Cherk's row-parallel update.
		cn, ck := minParallel/512, 4 // small n won't fan out; use n large enough
		_ = cn
		hn := 64
		g := randCVec(rng, hn*ck)
		c1 := make([]complex64, hn*hn)
		if err := Cherk(hn, ck, 1, g, ck, 0, c1, hn); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDotBitsAnyProcs: every kernel that fans out returns the same bits at
// GOMAXPROCS 1, 2, 3, 4 and 7 as at the ambient count, each at a size that
// crosses its fan-out threshold. SDOT and CDOTC run on random inputs and on
// inputs whose halves nearly cancel, where the order of the partial sums
// shows in the result; on the random inputs their value is that of a
// float64 sum.
//
// Gate (check.sh): core count, at -cpu 1,2,3.
func TestDotBitsAnyProcs(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	n := 5*minParallel + 77 // five full reduction chunks and a partial one
	x, y := randVec(rng, n), randVec(rng, n)
	cx, cy := randCVec(rng, n), randCVec(rng, n)
	// The second halves negate the first, so all that is left of the sum
	// is one term and the rounding of the partial sums, whose bits follow
	// the order they are added in.
	xc, yc := append([]float32(nil), x...), append([]float32(nil), y...)
	cxc, cyc := append([]complex64(nil), cx...), append([]complex64(nil), cy...)
	for i := 0; i < n/2; i++ {
		xc[n/2+i], yc[n/2+i] = xc[i], -yc[i]
		cxc[n/2+i], cyc[n/2+i] = cxc[i], -cyc[i]
	}
	yc[n-1], cyc[n-1] = 1e-6, 1e-6

	// The value itself: within float32 rounding of a float64 sum in index
	// order.
	var want float64
	var cwant complex128
	for i := 0; i < n; i++ {
		want += float64(x[i]) * float64(y[i])
		xv := complex128(cx[i])
		cwant += complex(real(xv), -imag(xv)) * complex128(cy[i])
	}
	dot, err := Sdot(n, x, 1, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	cdot, err := Cdotc(n, cx, 1, cy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(float64(dot), want, 1e-6) || !almostEqual(float64(real(cdot)), real(cwant), 1e-6) || !almostEqual(float64(imag(cdot)), imag(cwant), 1e-6) {
		t.Errorf("sdot %v, cdotc %v; float64 sums %v, %v", dot, cdot, want, cwant)
	}

	// A CSR matrix of m rows with one to four entries each, over k columns.
	m, k := minParallel+3, 64
	rowPtr := make([]int32, m+1)
	var colIdx []int32
	var values []float32
	for i := 0; i < m; i++ {
		for e := rng.Intn(4); e >= 0; e-- {
			colIdx = append(colIdx, int32(rng.Intn(k)))
			values = append(values, float32(rng.NormFloat64()))
		}
		rowPtr[i+1] = int32(len(values))
	}
	a, xk := randVec(rng, m*k), randVec(rng, k)
	batch := randCVec(rng, minParallel*12)

	sdot := func(x, y []float32) func() ([]float32, error) {
		return func() ([]float32, error) {
			d, err := Sdot(n, x, 1, y, 1)
			return []float32{d}, err
		}
	}
	cdotc := func(x, y []complex64) func() ([]float32, error) {
		return func() ([]float32, error) {
			d, err := Cdotc(n, x, 1, y, 1)
			return []float32{real(d), imag(d)}, err
		}
	}
	spmv := func(semiring int64) func() ([]float32, error) {
		return func() ([]float32, error) {
			out := make([]float32, m)
			return out, SpmvCSRSemiring(m, rowPtr, colIdx, values, xk, out, semiring, 0.5)
		}
	}
	fftBatch := func(length int) func() ([]float32, error) {
		return func() ([]float32, error) {
			p, err := NewFFTPlan(length, Forward)
			if err != nil {
				return nil, err
			}
			data := append([]complex64(nil), batch[:minParallel*length]...)
			err = FFTBatch(p, data, minParallel)
			return complexBits(data), err
		}
	}
	kernels := []struct {
		name string
		run  func() ([]float32, error)
	}{
		{"sdot/random", sdot(x, y)},
		{"sdot/cancelling", sdot(xc, yc)},
		{"cdotc/random", cdotc(cx, cy)},
		{"cdotc/cancelling", cdotc(cxc, cyc)},
		{"saxpy", func() ([]float32, error) {
			out := append([]float32(nil), y...)
			return out, Saxpy(n, 1.5, x, 1, out, 1)
		}},
		{"sgemv", func() ([]float32, error) {
			out := append([]float32(nil), y[:m]...)
			return out, Sgemv(m, k, 1.5, a, k, xk, 0.5, out)
		}},
		{"spmv/plus-times", spmv(SemiringPlusTimes)},
		{"spmv/min-plus", spmv(SemiringMinPlus)},
		{"resample", func() ([]float32, error) {
			out := make([]float32, 2*n)
			return out, Resample(x, out, InterpCubic)
		}},
		{"fftbatch/8", fftBatch(8)},
		{"fftbatch/12", fftBatch(12)},
	}
	// The reference runs at the ambient core count, which go test's -cpu
	// flag varies.
	ambient := runtime.GOMAXPROCS(0)
	for _, kn := range kernels {
		ref, err := kn.run()
		if err != nil {
			t.Fatalf("%s: %v", kn.name, err)
		}
		for _, procs := range []int{1, 2, 3, 4, 7} {
			withProcs(t, procs, func() {
				got, err := kn.run()
				if err != nil {
					t.Fatalf("%s at GOMAXPROCS %d: %v", kn.name, procs, err)
				}
				for i := range ref {
					if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
						t.Errorf("%s: output %d at GOMAXPROCS %d = %v, at %d = %v", kn.name, i, procs, got[i], ambient, ref[i])
						return
					}
				}
			})
		}
	}
}

// complexBits is data's real and imaginary parts, interleaved.
func complexBits(data []complex64) []float32 {
	out := make([]float32, 0, 2*len(data))
	for _, v := range data {
		out = append(out, real(v), imag(v))
	}
	return out
}

// partFunc is a reduction body made of a function.
type partFunc[T float64 | complex128] func(lo, hi int) T

func (f partFunc[T]) part(lo, hi int) T { return f(lo, hi) }

// TestParallelReduceBitIdentical drives the reductions with partials of
// mixed magnitude — where float addition order visibly changes the result —
// and checks that repeated runs agree bit for bit: the partials must be
// summed in chunk order, never in goroutine-completion order.
//
// Gate (check.sh): core count, at -cpu 1,2,3.
func TestParallelReduceBitIdentical(t *testing.T) {
	withProcs(t, 8, func() {
		n := minParallel * 4
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i%97) * math.Pow(10, float64(i%13-6))
		}
		sum := partFunc[float64](func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			return s
		})
		first := parallelReduce[float64](n, sum)
		for run := 0; run < 50; run++ {
			if got := parallelReduce[float64](n, sum); math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("run %d: parallelReduce = %x, first run gave %x", run, math.Float64bits(got), math.Float64bits(first))
			}
		}
		csum := partFunc[complex128](func(lo, hi int) complex128 {
			var s complex128
			for i := lo; i < hi; i++ {
				s += complex(data[i], -data[i])
			}
			return s
		})
		cfirst := parallelReduce[complex128](n, csum)
		for run := 0; run < 50; run++ {
			got := parallelReduce[complex128](n, csum)
			if math.Float64bits(real(got)) != math.Float64bits(real(cfirst)) ||
				math.Float64bits(imag(got)) != math.Float64bits(imag(cfirst)) {
				t.Fatalf("run %d: parallelReduce (complex) = %v, first run gave %v", run, got, cfirst)
			}
		}
	})
}

// TestParallelReduceDeterministic checks the reduction helpers directly.
func TestParallelReduceDeterministic(t *testing.T) {
	withProcs(t, 8, func() {
		n := minParallel * 2
		sum := parallelReduce[float64](n, partFunc[float64](func(lo, hi int) float64 {
			return float64(hi - lo)
		}))
		if sum != float64(n) {
			t.Errorf("parallelReduce = %v, want %v", sum, n)
		}
		csum := parallelReduce[complex128](n, partFunc[complex128](func(lo, hi int) complex128 {
			return complex(float64(hi-lo), float64(hi-lo))
		}))
		if csum != complex(float64(n), float64(n)) {
			t.Errorf("parallelReduce (complex) = %v", csum)
		}
		// Zero and tiny inputs stay on the serial path.
		if got := parallelReduce[float64](3, partFunc[float64](func(lo, hi int) float64 { return float64(hi - lo) })); got != 3 {
			t.Errorf("small parallelReduce = %v", got)
		}
	})
}

// TestKernelsInlineAllocateNothing: below minParallel every range and
// reduction kernel, at float32 and at complex64, runs its body inline and
// allocates nothing, and so does FFTBatch on a shared power-of-two plan.
//
// Gate (check.sh): fixed costs.
func TestKernelsInlineAllocateNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, m, k = 256, 16, 16
	x, y := randVec(rng, n), randVec(rng, n)
	cx, cy := randCVec(rng, n), randCVec(rng, n)
	a := randVec(rng, m*k)
	ca, cc := randCVec(rng, m*k), make([]complex64, m*m)
	rowPtr := make([]int32, m+1)
	colIdx := make([]int32, 0, 4*m)
	for i := 0; i < m; i++ {
		for e := 0; e < 4; e++ {
			colIdx = append(colIdx, int32(rng.Intn(k)))
		}
		rowPtr[i+1] = int32(len(colIdx))
	}
	values := randVec(rng, len(colIdx))
	tm, tn := 48, 40
	src, dst := randVec(rng, tm*tn), make([]float32, tm*tn)
	csrc, cdst := randCVec(rng, tm*tn), make([]complex64, tm*tn)
	plan, err := SharedFFTPlan(1024, Forward)
	if err != nil {
		t.Fatal(err)
	}
	batch := randCVec(rng, 1024*4)
	resampled := make([]float32, 2*n)
	for _, kn := range []struct {
		name string
		run  func() error
	}{
		{"saxpy", func() error { return Saxpy(n, 0.5, x, 1, y, 1) }},
		{"sdot", func() error { _, err := Sdot(n, x, 1, y, 1); return err }},
		{"sgemv", func() error { return Sgemv(m, k, 1, a, k, x, 0, y) }},
		{"cdotc", func() error { _, err := Cdotc(n, cx, 1, cy, 1); return err }},
		{"cherk", func() error { return Cherk(m, k, 1, ca, k, 0, cc, m) }},
		{"spmv/plus-times", func() error {
			return SpmvCSRSemiring(m, rowPtr, colIdx, values, x, y, SemiringPlusTimes, 0)
		}},
		{"spmv/min-plus", func() error {
			return SpmvCSRSemiring(m, rowPtr, colIdx, values, x, y, SemiringMinPlus, 0)
		}},
		{"resample", func() error { return Resample(x, resampled, InterpCubic) }},
		{"transpose/float32", func() error { return Transpose(tm, tn, src, dst) }},
		{"transpose/complex64", func() error { return Transpose(tm, tn, csrc, cdst) }},
		{"fftbatch/1", func() error { return FFTBatch(plan, batch, 1) }},
		{"fftbatch/4", func() error { return FFTBatch(plan, batch, 4) }},
	} {
		if err := kn.run(); err != nil {
			t.Fatalf("%s: %v", kn.name, err)
		}
		if avg := testing.AllocsPerRun(100, func() {
			if err := kn.run(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s below minParallel allocates %v times a call, want 0", kn.name, avg)
		}
	}
}

// TestFFTBatchFanOutAllocatesOnce: from minParallel transforms on, a batch
// on a power-of-two plan allocates its chunk closure and nothing else; only
// a length that is not a power of two makes its per-worker plan slots.
func TestFFTBatchFanOutAllocatesOnce(t *testing.T) {
	plan, err := SharedFFTPlan(8, Forward)
	if err != nil {
		t.Fatal(err)
	}
	batch := randCVec(rand.New(rand.NewSource(24)), 8*minParallel)
	if avg := testing.AllocsPerRun(20, func() {
		if err := FFTBatch(plan, batch, minParallel); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("FFTBatch of %d power-of-two transforms allocates %v times a call, want at most 1", minParallel, avg)
	}
}
