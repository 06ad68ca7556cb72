// Package analysis is a stdlib-only static-analysis framework for the
// MEALib codebase, plus the domain-specific analyzers cmd/mealint runs over
// it. The module deliberately has zero external dependencies, so the
// framework is built directly on go/parser, go/ast and go/types: a Loader
// that type-checks the repo's packages (with per-package caching), an
// Analyzer interface, and a runner that applies every analyzer to every
// loaded package.
//
// The analyzers encode hazards specific to this codebase:
//
//   - errcheck: silently dropped errors from module functions (runtime and
//     driver calls report real failures; ignoring them hides corruption);
//   - floateq: ==/!= on floating-point model outputs (energy, latency,
//     bandwidth figures need tolerances);
//   - unitsafe: quantities named like physical units but typed as bare
//     numerics where internal/units types exist;
//   - locksafe: mutex-guarded struct fields accessed without the lock;
//   - wgadd: sync.WaitGroup.Add inside the goroutine it accounts for (the
//     schedulers rely on the Add-before-go protocol);
//   - rules: the architecture rules, one typed table: each "one X" design
//     (one op table, one executor, one fan-out, one codec, ...) and the
//     deterministic simulator forbid code outside their places;
//   - addrflow: physical addresses laundered through bare integer
//     arithmetic re-entering an address sink (the initialized-span
//     tracker only sees values typed phys.Addr).
//
// The sibling package tdlcheck verifies TDL programs and accelerator
// descriptors rather than Go source.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic the way mealint prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pkg is one loaded, type-checked package.
type Pkg struct {
	// Path is the import path ("mealib/internal/accel"; external test
	// packages carry a ".test" suffix).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Position resolves a token position against the package's file set.
func (p *Pkg) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

// Analyzer is one static check.
type Analyzer interface {
	// Name is the short identifier used in diagnostics and test names.
	Name() string
	// Doc is a one-line description.
	Doc() string
	// Run analyzes one package.
	Run(p *Pkg) []Diagnostic
}

// Analyzers returns the full mealint suite in stable order.
func Analyzers() []Analyzer {
	return []Analyzer{
		errcheck{},
		floateq{},
		unitsafe{},
		locksafe{},
		wgadd{},
		rules{ruleTable},
		addrflow{},
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) Analyzer {
	for _, a := range Analyzers() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run applies every analyzer to every package and returns the merged,
// position-sorted findings.
func Run(pkgs []*Pkg, analyzers []Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, p := range pkgs {
		for _, a := range analyzers {
			out = append(out, a.Run(p)...)
		}
	}
	sortDiagnostics(out)
	return out
}
