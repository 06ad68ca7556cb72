// Command tdlc parses a Task Description Language program (paper §3.4),
// validates it, and prints either its canonical form or the accelerator
// descriptor it compiles to (instruction listing with loop nests, passes
// and parameter references).
//
// Usage:
//
//	tdlc [-dump] [-nocheck] [-fuse -params table.json] program.tdl
//	echo 'LOOP 128 { PASS { COMP FFT PARAMS "fft.para" } }' | tdlc -dump -
//
// Programs are run through the static verifier (internal/analysis/tdlcheck)
// by default; -nocheck skips it. With -fuse, the descriptor fusion pass
// merges adjacent producer→consumer passes into chained passes; fusion
// analyses real operand addresses and sizes, so it needs a bound parameter
// table (-params: a JSON object mapping each PARAMS reference to its
// 64-bit words).
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
	fuse := flag.Bool("fuse", false, "apply the descriptor fusion pass (requires -params)")
	paramsFile := flag.String("params", "", `JSON parameter table: {"fft.para": [w0, w1, ...], ...}`)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tdlc [-dump] [-nocheck] [-fuse -params table.json] program.tdl (use - for stdin)")
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
	// d is the program compiled, once: by the fusion analysis, or for -dump.
	var d *descriptor.Descriptor
	if *fuse {
		if *paramsFile == "" {
			fmt.Fprintln(os.Stderr, "tdlc: -fuse needs real operand addresses; supply -params")
			os.Exit(2)
		}
		var groups []accel.FusedGroup
		d, groups, err = tdl.Fuse(prog, resolve, accel.MEALibConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "tdlc: fuse:", err)
			os.Exit(1)
		}
		for _, g := range groups {
			fmt.Fprintf(os.Stderr, "tdlc: fused %s: passes %d..%d, %d B/iter kept in tile-local memory (x%d iterations)\n",
				strings.Join(g.Ops, "+"), g.FirstPass, g.FirstPass+g.Passes-1, g.HandoffBytes, g.Iters)
		}
		if len(groups) == 0 {
			fmt.Fprintln(os.Stderr, "tdlc: fuse: no fusible pass chains")
		}
	}
	if !*dump {
		fmt.Print(tdl.Format(prog))
		return
	}
	if d == nil {
		if d, err = tdl.Compile(prog, resolve); err != nil {
			fmt.Fprintln(os.Stderr, "tdlc:", err)
			os.Exit(1)
		}
	}
	fmt.Print(d.Disassemble())
}
