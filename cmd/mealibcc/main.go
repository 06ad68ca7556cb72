// Command mealibcc is the MEALib source-to-source compiler CLI (paper
// §3.4): it reads a legacy C source that uses MKL/FFTW/OpenMP, identifies
// the accelerable library calls, and emits the transformed source plus the
// generated TDL programs.
//
// Usage:
//
//	mealibcc [-D NAME=VALUE ...] [-o out.c] [-summary] input.c
//
// Every generated TDL program is run back through the parser, which rejects
// a malformed one, before the transformed source is emitted; its parameters
// are verified where they bind, at install.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mealib/internal/ccompiler"
	"mealib/internal/tdl"
)

// defineFlags collects repeated -D NAME=VALUE flags.
type defineFlags map[string]int64

func (d defineFlags) String() string { return fmt.Sprintf("%v", map[string]int64(d)) }

func (d defineFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", v)
	}
	n, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return fmt.Errorf("value of %s: %w", name, err)
	}
	d[name] = n
	return nil
}

func main() {
	defines := defineFlags{"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0}
	out := flag.String("o", "", "write transformed source here (default stdout)")
	summary := flag.Bool("summary", false, "print the compilation summary instead of the source")
	flag.Var(defines, "D", "define an integer constant (repeatable): -D N_DOP=256")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mealibcc [-D NAME=VALUE ...] [-o out.c] [-summary] input.c")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mealibcc:", err)
		os.Exit(1)
	}
	res, err := ccompiler.Compile(string(src), ccompiler.Options{Symbols: defines})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mealibcc:", err)
		os.Exit(1)
	}
	for _, plan := range res.Plans {
		if _, err := tdl.Parse(plan.TDL); err != nil {
			fmt.Fprintf(os.Stderr, "mealibcc: generated TDL for %s does not parse: %v\n", plan.Name, err)
			os.Exit(1)
		}
	}
	if *summary {
		fmt.Print(res.Describe())
		return
	}
	if *out == "" {
		fmt.Print(res.Source)
		return
	}
	if err := os.WriteFile(*out, []byte(res.Source), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "mealibcc:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mealibcc: %d library call sites -> %d descriptors (%d calls covered)\n",
		res.Stats.CallSites, res.Stats.Descriptors, res.Stats.CoveredCalls)
}
