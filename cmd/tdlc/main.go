// Command tdlc parses a Task Description Language program (paper §3.4),
// validates it, and prints either its canonical form or the accelerator
// descriptor it compiles to (instruction listing with loop nests, passes
// and parameter references).
//
// Usage:
//
//	tdlc [-dump] [-params table.json] program.tdl
//	echo 'LOOP 128 { PASS { COMP FFT PARAMS "fft.para" } }' | tdlc -dump -
//
// The parser rejects a malformed program (trip counts, nesting, opcodes,
// parameter references); what the parameters decide is verified where they
// bind, at install. Parameters bind at run time, so -dump
// lists placeholders, and no encoded size, unless -params supplies a table
// (a JSON object mapping each PARAMS reference to its 64-bit words). With a
// table, -dump prints the descriptor's encoded size and the producer→consumer
// pass groups the accelerator layer's plan lowering will fuse into chained
// passes: fusion is decided there, on real operand addresses and sizes, for
// every descriptor it installs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/tdl"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the command on args, reading a program named - from stdin; it
// returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("tdlc", flag.ContinueOnError)
	flags.SetOutput(stderr)
	dump := flags.Bool("dump", false, "print the compiled descriptor instruction listing")
	paramsFile := flags.String("params", "", `JSON parameter table: {"fft.para": [w0, w1, ...], ...}; with -dump, also print the encoded size and list the passes the plan lowering fuses`)
	if err := flags.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if flags.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tdlc [-dump] [-params table.json] program.tdl (use - for stdin)")
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintln(stderr, what, err)
		return 1
	}
	var src []byte
	var err error
	if flags.Arg(0) == "-" {
		src, err = io.ReadAll(stdin)
	} else {
		src, err = os.ReadFile(flags.Arg(0))
	}
	if err != nil {
		return fail("tdlc:", err)
	}
	prog, err := tdl.Parse(string(src))
	if err != nil {
		return fail("tdlc:", err)
	}
	// Parameters bind at run time; -dump inspects structure with
	// placeholders unless a table is supplied.
	resolve := func(ref string) (descriptor.Params, error) {
		return descriptor.Params{0}, nil
	}
	if *paramsFile != "" {
		raw, err := os.ReadFile(*paramsFile)
		if err != nil {
			return fail("tdlc:", err)
		}
		var table map[string][]uint64
		if err := json.Unmarshal(raw, &table); err != nil {
			return fail("tdlc: params table:", err)
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
		fmt.Fprint(stdout, tdl.Format(prog))
		return 0
	}
	d, err := tdl.Compile(prog, resolve)
	if err != nil {
		return fail("tdlc:", err)
	}
	if *paramsFile == "" {
		// The blocks are one-word placeholders, so the descriptor's encoded
		// size is not the program's.
		fmt.Fprintf(stdout, "descriptor: %d instructions, %d accelerator invocations, encoded size unknown (parameters unbound; -params binds them)\n%s",
			len(d.Instrs), d.Comps(), d.Listing())
		return 0
	}
	fmt.Fprint(stdout, d.Disassemble())
	// The groups the plan lowering of a runtime on the paper's configuration
	// fuses.
	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		return fail("tdlc:", err)
	}
	info, err := layer.ExplainPlan(d)
	if err != nil {
		return fail("tdlc:", err)
	}
	for _, g := range info.Fused {
		fmt.Fprintf(stdout, "fused %s: passes %d..%d, %d B/iter kept in tile-local memory (x%d iterations)\n",
			strings.Join(g.Ops, "+"), g.FirstPass, g.FirstPass+g.Passes-1, g.HandoffBytes, g.Iters)
	}
	if len(info.Fused) == 0 {
		fmt.Fprintln(stdout, "fused: no producer→consumer pass chains")
	}
	return 0
}
