// Quickstart: allocate accelerator-visible buffers, run memory-bounded
// library operations on the simulated memory-side accelerators, and read
// the modelled time/energy of each invocation.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mealib"
)

func main() {
	sys, err := mealib.New()
	if err != nil {
		log.Fatal(err)
	}

	// Buffers live in the physically contiguous data space, visible to the
	// host (this code) and to the accelerators (by physical address).
	const n = 1 << 20
	x, err := mealib.Alloc[float32](sys, n)
	if err != nil {
		log.Fatal(err)
	}
	y, err := mealib.Alloc[float32](sys, n)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
		ys[i] = float32(rng.NormFloat64())
	}
	if err := x.Set(xs); err != nil {
		log.Fatal(err)
	}
	if err := y.Set(ys); err != nil {
		log.Fatal(err)
	}

	// y += 2x on the AXPY accelerator (cblas_saxpy of Table 1).
	run, err := sys.Saxpy(2.0, x, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AXPY over %d elements: %v total (%v on the accelerators), %v\n",
		n, run.Time, run.AccelTime, run.Energy)

	// Inner product on the DOT accelerator.
	dot, run, err := sys.Sdot(x, y)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DOT  = %.4g: %v total, %v\n", dot, run.Time, run.Energy)

	// A batched FFT on the FFT accelerator.
	const fftN, batch = 4096, 64
	sig, err := mealib.Alloc[complex64](sys, fftN*batch)
	if err != nil {
		log.Fatal(err)
	}
	cs := make([]complex64, fftN*batch)
	for i := range cs {
		cs[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	if err := sig.Set(cs); err != nil {
		log.Fatal(err)
	}
	run, err = sys.FFT(sig, fftN, batch, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FFT  %d x %d points: %v total, %v\n", batch, fftN, run.Time, run.Energy)

	st := sys.Stats()
	fmt.Printf("\n%d accelerator invocations; overhead %v (cache flush + descriptor copy)\n",
		st.Invocations, st.OverheadTime)
}
