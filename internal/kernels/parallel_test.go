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

		serial, err := SdotNaive(n, x, 1, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Sdot(n, x, 1, y, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(float64(serial), float64(par), 1e-3) {
			t.Errorf("sdot parallel %v vs naive %v", par, serial)
		}

		if err := Sscal(n, 1.25, append([]float32(nil), x...), 1); err != nil {
			t.Fatal(err)
		}

		cx := randCVec(rng, n)
		cSerial, err := CdotcNaive(n, cx, 1, cx, 1)
		if err != nil {
			t.Fatal(err)
		}
		cPar, err := Cdotc(n, cx, 1, cx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(float64(real(cSerial)), float64(real(cPar)), 1e-3) {
			t.Errorf("cdotc parallel %v vs naive %v", cPar, cSerial)
		}

		// Row-parallel GEMV, SPMV and transpose on matrices big enough to
		// fan out.
		m := minParallel + 3
		k := 8
		a := randVec(rng, m*k)
		xs := randVec(rng, k)
		y1 := make([]float32, m)
		y2 := make([]float32, m)
		if err := SgemvNaive(m, k, 1, a, k, xs, 0, y1); err != nil {
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
		s1 := make([]float32, m)
		s2 := make([]float32, m)
		if err := SpmvCSRNaive(m, rowPtr, colIdx, values, xs, s1); err != nil {
			t.Fatal(err)
		}
		if err := SpmvCSR(m, rowPtr, colIdx, values, xs, s2); err != nil {
			t.Fatal(err)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("spmv diverges at %d", i)
			}
		}

		edge := 256 // 256x256 > minParallel blocks? blocks=64 — rows fan out via block count
		src := randVec(rng, edge*edge)
		d1 := make([]float32, edge*edge)
		d2 := make([]float32, edge*edge)
		if err := TransposeNaive(edge, edge, src, d1); err != nil {
			t.Fatal(err)
		}
		if err := Transpose(edge, edge, src, d2); err != nil {
			t.Fatal(err)
		}
		for i := range d1 {
			if d1[i] != d2[i] {
				t.Fatalf("transpose diverges at %d", i)
			}
		}

		rs := make([]float32, 2*n)
		rsN := make([]float32, 2*n)
		if err := ResampleNaive(x, rsN, InterpCubic); err != nil {
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

// TestParallelReduceBitIdentical drives the reductions with partials of
// mixed magnitude — where float addition order visibly changes the result —
// and checks that repeated runs agree bit for bit: the partials must be
// summed in chunk order, never in goroutine-completion order.
func TestParallelReduceBitIdentical(t *testing.T) {
	withProcs(t, 8, func() {
		n := minParallel * 4
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i%97) * math.Pow(10, float64(i%13-6))
		}
		sum := func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += data[i]
			}
			return s
		}
		first := parallelReduce(n, sum)
		for run := 0; run < 50; run++ {
			if got := parallelReduce(n, sum); math.Float64bits(got) != math.Float64bits(first) {
				t.Fatalf("run %d: parallelReduce = %x, first run gave %x", run, math.Float64bits(got), math.Float64bits(first))
			}
		}
		csum := func(lo, hi int) complex128 {
			var s complex128
			for i := lo; i < hi; i++ {
				s += complex(data[i], -data[i])
			}
			return s
		}
		cfirst := parallelReduce(n, csum)
		for run := 0; run < 50; run++ {
			got := parallelReduce(n, csum)
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
		sum := parallelReduce(n, func(lo, hi int) float64 {
			return float64(hi - lo)
		})
		if sum != float64(n) {
			t.Errorf("parallelReduce = %v, want %v", sum, n)
		}
		csum := parallelReduce(n, func(lo, hi int) complex128 {
			return complex(float64(hi-lo), float64(hi-lo))
		})
		if csum != complex(float64(n), float64(n)) {
			t.Errorf("parallelReduce (complex) = %v", csum)
		}
		// Zero and tiny inputs stay on the serial path.
		if got := parallelReduce(3, func(lo, hi int) float64 { return float64(hi - lo) }); got != 3 {
			t.Errorf("small parallelReduce = %v", got)
		}
	})
}
