package mealib_test

import (
	"fmt"
	"log"

	"mealib"
)

// The basic flow: allocate accelerator-visible buffers, run a memory-bounded
// operation on the memory-side accelerators, read the result.
func Example() {
	sys, err := mealib.New()
	if err != nil {
		log.Fatal(err)
	}
	x, _ := mealib.Alloc[float32](sys, 4)
	y, _ := mealib.Alloc[float32](sys, 4)
	_ = x.Set([]float32{1, 2, 3, 4})
	_ = y.Set([]float32{10, 20, 30, 40})
	if _, err := sys.Saxpy(2, x, y); err != nil {
		log.Fatal(err)
	}
	out, _ := y.All()
	fmt.Println(out)
	// Output: [12 24 36 48]
}

// Hardware chaining: a transpose feeding a batched FFT runs as one PASS, so
// the intermediate never leaves the memory stack.
func ExampleSystem_NewPlan_chaining() {
	sys, err := mealib.New()
	if err != nil {
		log.Fatal(err)
	}
	const n = 8
	src, _ := mealib.Alloc[complex64](sys, n*n)
	dst, _ := mealib.Alloc[complex64](sys, n*n)
	img := make([]complex64, n*n)
	img[0] = 1 // impulse
	_ = src.Set(img)
	run, err := sys.NewPlan().
		Pass(mealib.TransposeC64Comp(n, n, src, dst),
			mealib.FFTComp(n, n, dst, false, nil)).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("accelerator activations:", run.Comps)
	out, _ := dst.Get(0, 1)
	fmt.Println("first bin:", out[0])
	// Output:
	// accelerator activations: 2
	// first bin: (1+0i)
}

// A hardware LOOP descriptor compacts many library calls into one
// invocation: here 8 dot products execute from a single descriptor.
func ExampleSystem_NewPlan_loop() {
	sys, err := mealib.New()
	if err != nil {
		log.Fatal(err)
	}
	const iters, n = 8, 16
	x, _ := mealib.Alloc[complex64](sys, n)
	y, _ := mealib.Alloc[complex64](sys, n*iters)
	out, _ := mealib.Alloc[complex64](sys, iters)
	ones := make([]complex64, n)
	for i := range ones {
		ones[i] = 1
	}
	_ = x.Set(ones)
	ys := make([]complex64, n*iters)
	for k := range ys {
		ys[k] = complex(float32(k/n+1), 0)
	}
	_ = y.Set(ys)
	run, err := sys.NewPlan().
		Loop([]int{iters},
			mealib.CdotcComp(n, x, y, out, 1, nil, mealib.Strides{n}, mealib.Strides{1})).
		Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("calls in one invocation:", run.Comps)
	res, _ := out.All()
	fmt.Println("first, last:", res[0], res[iters-1])
	// Output:
	// calls in one invocation: 8
	// first, last: (16+0i) (128+0i)
}

// The source-to-source compiler turns legacy C into accelerator plans.
func ExampleCompileC() {
	src := `
void axpy_loop(void) {
  float gamma[8][16];
  float acc[16];
  int i;
  for (i = 0; i < 8; ++i)
    cblas_saxpy(16, 1.0f, &gamma[i][0], 1, acc, 1);
}
`
	prog, err := mealib.CompileC(src, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("descriptors:", prog.Descriptors())
	fmt.Println("calls covered:", prog.CoveredCalls())
	// Output:
	// descriptors: 1
	// calls covered: 8
}
