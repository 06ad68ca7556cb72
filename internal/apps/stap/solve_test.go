package stap

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
)

// solveSerial is SolveWeights as one loop over the (doppler, block) pairs on
// the whole Doppler cube: the reference the split solve must match bit for
// bit.
func solveSerial(t *testing.T, pl *Pipeline) []complex64 {
	t.Helper()
	p := pl.Params
	n := p.Dof()
	total := p.DatacubeElems()
	cube, err := pl.Doppler()
	if err != nil {
		t.Fatal(err)
	}
	steer := steeringVectors(p)
	weights := make([]complex64, p.NPulses*p.NBlocks*p.NSteering*n)
	snap := make([]complex64, n*p.TBS)
	cov := make([]complex64, n*n)
	for dop := 0; dop < p.NPulses; dop++ {
		for blk := 0; blk < p.NBlocks; blk++ {
			for i := 0; i < n; i++ {
				for t := 0; t < p.TBS; t++ {
					snap[i*p.TBS+t] = cube[(dop*p.NBlocks*p.TBS+blk*p.TBS+t+i*31)%total]
				}
			}
			if err := kernels.Cherk(n, p.TBS, 1, snap, p.TBS, 0, cov, n); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				cov[i*n+i] += complex(float32(n), 0)
			}
			if err := kernels.Cpotrf(n, cov, n); err != nil {
				t.Fatal(err)
			}
			for sv := 0; sv < p.NSteering; sv++ {
				w := make([]complex64, n)
				copy(w, steer[sv])
				if err := kernels.Ctrsm(kernels.Lower, kernels.NoTrans, n, 1, 1, cov, n, w, 1); err != nil {
					t.Fatal(err)
				}
				if err := kernels.Ctrsm(kernels.Lower, kernels.ConjTrans, n, 1, 1, cov, n, w, 1); err != nil {
					t.Fatal(err)
				}
				off := ((dop*p.NBlocks+blk)*p.NSteering + sv) * n
				copy(weights[off:off+n], w)
			}
		}
	}
	return weights
}

// TestSolveWeightsMatchesSerial: at GOMAXPROCS 1 and 2 the split solve
// writes the serial loop's weights bit for bit and leaves no goroutine
// behind, on the tiny problem (its snapshot walk stays in a prefix of the
// cube) and on one whose walk wraps past the cube's end.
func TestSolveWeightsMatchesSerial(t *testing.T) {
	wrapping := Params{Name: "wrap", NChan: 2, NPulses: 8, NRange: 16,
		NBlocks: 4, NSteering: 2, TDOF: 2, TBS: 8}
	if reach := wrapping.NPulses*wrapping.NBlocks*wrapping.TBS + (wrapping.Dof()-1)*31; reach <= wrapping.DatacubeElems() {
		t.Fatalf("wrap case reaches %d of %d elements: its walk does not wrap", reach, wrapping.DatacubeElems())
	}
	for _, p := range []Params{tinyParams(), wrapping} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/procs=%d", p.Name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				rt, err := mealibrt.New(mealibrt.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				pl, err := NewPipeline(p, rt)
				if err != nil {
					t.Fatal(err)
				}
				if err := pl.LoadDatacube(11); err != nil {
					t.Fatal(err)
				}
				if _, err := pl.DopplerProcess(); err != nil {
					t.Fatal(err)
				}
				before := runtime.NumGoroutine()
				if err := pl.SolveWeights(); err != nil {
					t.Fatal(err)
				}
				// A joined goroutine may still be on its way out: allow it
				// up to 5 s.
				for waited := 0; runtime.NumGoroutine() > before; waited++ {
					if waited == 5000 {
						t.Fatalf("GOMAXPROCS %d: %d goroutines after the solve, %d before", procs, runtime.NumGoroutine(), before)
					}
					time.Sleep(time.Millisecond)
				}
				got, err := pl.Weights()
				if err != nil {
					t.Fatal(err)
				}
				requireC64BitIdentical(t, "weights", solveSerial(t, pl), got)
			})
		}
	}
}

// BenchmarkSolveWeights is the host solve of stap.Small(), the problem the
// pipeline benchmark runs.
func BenchmarkSolveWeights(b *testing.B) {
	rt, err := mealibrt.New(mealibrt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pl, err := NewPipeline(Small(), rt)
	if err != nil {
		b.Fatal(err)
	}
	if err := pl.LoadDatacube(1); err != nil {
		b.Fatal(err)
	}
	if _, err := pl.DopplerProcess(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pl.SolveWeights(); err != nil {
			b.Fatal(err)
		}
	}
}
