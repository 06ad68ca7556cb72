// Command mealint runs the MEALib static-analysis suite
// (internal/analysis) over the repository. It is built entirely on the
// standard library's go/parser, go/ast and go/types — the module has no
// external dependencies, and this tool keeps it that way.
//
// Usage:
//
//	mealint [-list] [-analyzers name,name] [-json] [packages]
//
// Package patterns are directories relative to the working directory;
// "dir/..." recurses (testdata, hidden and underscore directories are
// skipped). With no patterns, ./... is analyzed. Test files are included.
// -analyzers restricts the run to the named analyzers (rules is the table
// of architecture rules); -json emits the diagnostics as a JSON array for
// CI annotation tooling. Exits 1 when any diagnostic is reported, 2 on
// usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mealib/internal/analysis"
)

// jsonDiag is one diagnostic in -json output form.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	names := flag.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-9s %s\n", a.Name(), a.Doc())
		}
		return
	}

	analyzers := analysis.Analyzers()
	if *names != "" {
		analyzers = nil
		for _, name := range strings.Split(*names, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "mealint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mealint:", err)
		os.Exit(2)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mealint:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mealint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(cwd, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mealint:", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers)
	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
		return name
	}
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File:     rel(d.Pos.Filename),
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "mealint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			pos := d.Pos
			pos.Filename = rel(pos.Filename)
			fmt.Printf("%s: [%s] %s\n", pos, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mealint: %d packages clean\n", len(pkgs))
}
