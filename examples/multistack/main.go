// Buffer placement across memory stacks (paper §3.3/§3.5): the runtime can
// allocate on an explicit stack; data on the accelerators' Local Memory
// Stack streams at the 510 GB/s internal bandwidth, while data on a Remote
// Memory Stack crosses the 40 GB/s inter-stack links. Same program, same
// results — an order of magnitude apart in accelerator time.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mealib"
)

func main() {
	sys, err := mealib.New(mealib.WithStacks(2))
	if err != nil {
		log.Fatal(err)
	}
	const n = 1 << 20
	rng := rand.New(rand.NewSource(9))
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64())
	}

	measure := func(stack int) *mealib.Run {
		x, err := mealib.AllocOn[float32](sys, stack, n)
		if err != nil {
			log.Fatal(err)
		}
		y, err := mealib.AllocOn[float32](sys, stack, n)
		if err != nil {
			log.Fatal(err)
		}
		if err := x.Set(xs); err != nil {
			log.Fatal(err)
		}
		if err := y.Set(make([]float32, n)); err != nil {
			log.Fatal(err)
		}
		run, err := sys.Saxpy(1.0, x, y)
		if err != nil {
			log.Fatal(err)
		}
		out, err := y.Get(0, 4)
		if err != nil {
			log.Fatal(err)
		}
		for i := range out {
			if out[i] != xs[i] {
				log.Fatalf("stack %d computed wrong results", stack)
			}
		}
		return run
	}

	local := measure(0)  // the accelerators' Local Memory Stack
	remote := measure(1) // a Remote Memory Stack

	fmt.Printf("AXPY over %d elements (4 MB per operand):\n", n)
	fmt.Printf("  local stack  (LMS): %v on the accelerators, %v\n", local.AccelTime, local.AccelEnergy)
	fmt.Printf("  remote stack (RMS): %v on the accelerators, %v\n", remote.AccelTime, remote.AccelEnergy)
	fmt.Printf("  slowdown: %.1fx — why mealib_mem_alloc takes a stack argument (§3.5)\n",
		float64(remote.AccelTime)/float64(local.AccelTime))
}
