// SAR image formation with hardware accelerator chaining (paper §5.4,
// Figure 12a): every row of the raw image is range-interpolated (RESMP)
// and Fourier transformed (FFT). Hardware chaining runs both accelerators
// in ONE pass of ONE LOOP descriptor — the intermediate row never leaves
// the stack — while software chaining launches two descriptors whose
// intermediate round-trips through DRAM.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mealib"
)

const (
	size = 256           // output image edge
	raw  = size + size/4 // raw samples per row
)

func buffers(sys *mealib.System, rng *rand.Rand) (*mealib.Complex64Buffer, *mealib.Complex64Buffer) {
	rawBuf, err := mealib.Alloc[complex64](sys, size*raw)
	if err != nil {
		log.Fatal(err)
	}
	img, err := mealib.Alloc[complex64](sys, size*size)
	if err != nil {
		log.Fatal(err)
	}
	data := make([]complex64, size*raw)
	for i := range data {
		data[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	if err := rawBuf.Set(data); err != nil {
		log.Fatal(err)
	}
	return rawBuf, img
}

func main() {
	sys, err := mealib.New()
	if err != nil {
		log.Fatal(err)
	}

	// Hardware chaining: LOOP size { PASS { RESMP -> FFT } }.
	rng := rand.New(rand.NewSource(7))
	rawHW, imgHW := buffers(sys, rng)
	hw, err := sys.NewPlan().Loop([]int{size},
		mealib.ResampleC64Comp(raw, size, rawHW, imgHW, false,
			mealib.Strides{raw}, mealib.Strides{size}),
		mealib.FFTComp(size, 1, imgHW, false, mealib.Strides{size}),
	).Run()
	if err != nil {
		log.Fatal(err)
	}

	// Software chaining: the same two stages as separate invocations.
	rng = rand.New(rand.NewSource(7))
	rawSW, imgSW := buffers(sys, rng)
	sw1, err := sys.NewPlan().Loop([]int{size},
		mealib.ResampleC64Comp(raw, size, rawSW, imgSW, false,
			mealib.Strides{raw}, mealib.Strides{size}),
	).Run()
	if err != nil {
		log.Fatal(err)
	}
	sw2, err := sys.NewPlan().Loop([]int{size},
		mealib.FFTComp(size, 1, imgSW, false, mealib.Strides{size}),
	).Run()
	if err != nil {
		log.Fatal(err)
	}

	// Both paths formed the same image.
	a, err := imgHW.All()
	if err != nil {
		log.Fatal(err)
	}
	b, err := imgSW.All()
	if err != nil {
		log.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			log.Fatalf("images differ at %d", i)
		}
	}

	swTotal := sw1.Time + sw2.Time
	fmt.Printf("image %dx%d, raw width %d\n", size, size, raw)
	fmt.Printf("hardware chaining : %v (1 invocation, %d accelerator activations)\n", hw.Time, hw.Comps)
	fmt.Printf("software chaining : %v (2 invocations)\n", swTotal)
	fmt.Printf("chaining speedup  : %.2fx (paper: 2.5x at 256^2, shrinking with size)\n",
		float64(swTotal)/float64(hw.Time))
}
