// Legacy code, unchanged semantics, memory-side execution: this example
// feeds the paper's Listing-1-style STAP C source through the MEALib
// source-to-source compiler, prints the transformed program and the
// generated TDL, then binds the generated plans to real buffers and runs
// them on the simulated accelerator layer — the full §3 software story.
package main

import (
	"fmt"
	"log"
	"os"

	"mealib"
)

// Problem-size macros (what -D would define when building the C program).
var symbols = map[string]int64{
	"N_CHAN": 4, "N_PULSES": 8, "N_RANGE": 64, "N_DOP": 8,
	"N_BLOCKS": 2, "N_STEERING": 4, "TDOF": 2,
	"TDOF_NCHAN": 8, "TBS": 16, "CELL_DIM": 16 * 8,
	"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0,
}

func main() {
	src, err := os.ReadFile("internal/ccompiler/testdata/stap.c")
	if err != nil {
		src, err = os.ReadFile("../../internal/ccompiler/testdata/stap.c")
		if err != nil {
			log.Fatal("run from the repository root: ", err)
		}
	}

	prog, err := mealib.CompileC(string(src), symbols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== compilation summary ===")
	fmt.Println(prog.Summary())
	fmt.Println("=== transformed source (excerpt) ===")
	out := prog.Source()
	if len(out) > 1800 {
		out = out[:1800] + "\n  ...\n"
	}
	fmt.Println(out)

	// Allocate the buffers the compiler discovered and run the plans.
	sys, err := mealib.New()
	if err != nil {
		log.Fatal(err)
	}
	elems := map[string]int{
		"datacube":                    int(symbols["N_CHAN"] * symbols["N_PULSES"] * symbols["N_RANGE"]),
		"datacube_pulse_major_padded": int(symbols["N_CHAN"] * symbols["N_PULSES"] * symbols["N_RANGE"]),
		"datacube_doppler_major":      int(symbols["N_CHAN"] * symbols["N_PULSES"] * symbols["N_RANGE"]),
		"adaptive_weights":            int(symbols["N_DOP"] * symbols["N_BLOCKS"] * symbols["N_STEERING"] * symbols["TDOF_NCHAN"]),
		"snapshots":                   int(symbols["N_DOP"] * symbols["N_BLOCKS"] * symbols["CELL_DIM"]),
		"prods":                       int(symbols["N_DOP"] * symbols["N_BLOCKS"] * symbols["N_STEERING"] * symbols["TBS"]),
	}
	floatElems := map[string]int{
		"gamma_weight": int(symbols["N_DOP"] * symbols["N_BLOCKS"] * symbols["TDOF_NCHAN"]),
		"acc_weight":   int(symbols["TDOF_NCHAN"]),
	}
	buffers := map[string]mealib.BufferBinding{}
	for name, n := range elems {
		b, err := mealib.Alloc[complex64](sys, n)
		if err != nil {
			log.Fatal(err)
		}
		data := make([]complex64, n)
		for i := range data {
			data[i] = complex(float32(i%13)/13, float32(i%7)/7)
		}
		if err := b.Set(data); err != nil {
			log.Fatal(err)
		}
		buffers[name] = mealib.Bind(b)
	}
	for name, n := range floatElems {
		b, err := mealib.Alloc[float32](sys, n)
		if err != nil {
			log.Fatal(err)
		}
		if err := b.Set(make([]float32, n)); err != nil {
			log.Fatal(err)
		}
		buffers[name] = mealib.Bind(b)
	}

	runs, err := prog.Execute(sys, buffers, symbols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== execution ===")
	for i, r := range runs {
		fmt.Printf("plan %d: %d accelerator activations, %v total, %v\n",
			i, r.Comps, r.Time, r.Energy)
	}
	fmt.Printf("\n%d library calls covered by %d descriptor invocations (paper: 17M -> 3)\n",
		prog.CoveredCalls(), prog.Descriptors())
}
