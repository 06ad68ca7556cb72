// Command tdlc parses a Task Description Language program (paper §3.4),
// validates it, and prints either its canonical form or the accelerator
// descriptor it compiles to (instruction listing with loop nests, passes
// and parameter references).
//
// Usage:
//
//	tdlc [-dump] [-nocheck] [-params table.json] program.tdl
//	echo 'LOOP 128 { PASS { COMP FFT PARAMS "fft.para" } }' | tdlc -dump -
//
// Programs are run through the static verifier (internal/analysis/tdlcheck)
// by default; -nocheck skips it. Parameters bind at run time, so -dump
// lists placeholders unless -params supplies a table (a JSON object mapping
// each PARAMS reference to its 64-bit words). With a table, -dump also
// prints the producer→consumer pass groups the accelerator layer's plan
// lowering will fuse into chained passes: fusion is decided there, on real
// operand addresses and sizes, for every descriptor it installs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/analysis/tdlcheck"
	"mealib/internal/descriptor"
	"mealib/internal/tdl"
)

func main() {
	dump := flag.Bool("dump", false, "print the compiled descriptor instruction listing")
	nocheck := flag.Bool("nocheck", false, "skip the static verifier")
	paramsFile := flag.String("params", "", `JSON parameter table: {"fft.para": [w0, w1, ...], ...}; with -dump, also list the passes the plan lowering fuses`)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tdlc [-dump] [-nocheck] [-params table.json] program.tdl (use - for stdin)")
		os.Exit(2)
	}
	var src []byte
	var err error
	if flag.Arg(0) == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(flag.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdlc:", err)
		os.Exit(1)
	}
	prog, err := tdl.Parse(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdlc:", err)
		os.Exit(1)
	}
	if !*nocheck {
		if err := tdlcheck.VerifyProgram(prog); err != nil {
			fmt.Fprintln(os.Stderr, "tdlc:", err)
			os.Exit(1)
		}
	}
	// Parameters bind at run time; -dump inspects structure with
	// placeholders unless a table is supplied.
	resolve := func(ref string) (descriptor.Params, error) {
		return descriptor.Params{0}, nil
	}
	if *paramsFile != "" {
		raw, err := os.ReadFile(*paramsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdlc:", err)
			os.Exit(1)
		}
		var table map[string][]uint64
		if err := json.Unmarshal(raw, &table); err != nil {
			fmt.Fprintln(os.Stderr, "tdlc: params table:", err)
			os.Exit(1)
		}
		resolve = func(ref string) (descriptor.Params, error) {
			words, ok := table[ref]
			if !ok {
				return nil, fmt.Errorf("unresolved parameter reference %q", ref)
			}
			return descriptor.Params(words), nil
		}
	}
	if !*dump {
		fmt.Print(tdl.Format(prog))
		return
	}
	d, err := tdl.Compile(prog, resolve)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdlc:", err)
		os.Exit(1)
	}
	fmt.Print(d.Disassemble())
	if *paramsFile == "" {
		return
	}
	// The groups the plan lowering of a runtime on the paper's configuration
	// fuses.
	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdlc:", err)
		os.Exit(1)
	}
	info, err := layer.ExplainPlan(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tdlc:", err)
		os.Exit(1)
	}
	for _, g := range info.Fused {
		fmt.Printf("fused %s: passes %d..%d, %d B/iter kept in tile-local memory (x%d iterations)\n",
			strings.Join(g.Ops, "+"), g.FirstPass, g.FirstPass+g.Passes-1, g.HandoffBytes, g.Iters)
	}
	if len(info.Fused) == 0 {
		fmt.Println("fused: no producer→consumer pass chains")
	}
}
