package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches `// want "regex"` or `// want `+"`regex`"+` expectation
// comments in testdata sources (same convention as x/tools analysistest,
// reimplemented here on the standard library).
var wantRe = regexp.MustCompile("want\\s+(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// expectation is one want comment: a diagnostic matching re must be
// reported at file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants extracts the expectations from a loaded package's comments.
func collectWants(t *testing.T, p *Pkg) []expectation {
	t.Helper()
	var wants []expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					raw := m[1]
					var pat string
					if raw[0] == '`' {
						pat = raw[1 : len(raw)-1]
					} else {
						var err error
						pat, err = strconv.Unquote(raw)
						if err != nil {
							t.Fatalf("bad want comment %q: %v", c.Text, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", pat, err)
					}
					pos := p.Position(c.Pos())
					wants = append(wants, expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// unmatched returns the diagnostics no want covers and the wants no
// diagnostic on their line matches.
func unmatched(wants []expectation, diags []Diagnostic) (extra []Diagnostic, missing []expectation) {
	hit := make([]bool, len(wants))
	for _, d := range diags {
		matched := false
		for i, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				hit[i], matched = true, true
			}
		}
		if !matched {
			extra = append(extra, d)
		}
	}
	for i, w := range wants {
		if !hit[i] {
			missing = append(missing, w)
		}
	}
	return extra, missing
}

// repoLoader returns a loader for the module holding this package.
func repoLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

// loadFixtures loads an analyzer's test data: testdata/src/<name> as
// itself, and each directory below it as the module package at its
// relative path, so the rules fixtures, which mirror the module's layout,
// fall in the places their rows name.
func loadFixtures(t *testing.T, l *Loader, name string) []*Pkg {
	t.Helper()
	top := filepath.Join("testdata", "src", name)
	var pkgs []*Pkg
	err := filepath.WalkDir(top, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() || !hasGoFiles(dir) {
			return err
		}
		if dir == top {
			ps, err := l.Load(dir)
			pkgs = append(pkgs, ps...)
			return err
		}
		rel, err := filepath.Rel(top, dir)
		if err != nil {
			return err
		}
		files, _, err := l.parseDir(dir, true)
		if err != nil {
			return err
		}
		path := l.mod + "/" + filepath.ToSlash(rel)
		tpkg, info, err := l.check(path, files)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, &Pkg{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no package in %s", top)
	}
	return pkgs
}

// TestAnalyzers runs each analyzer over its testdata and checks the
// reported diagnostics against the // want comments: every want must be
// matched by a diagnostic on its line, and every diagnostic must be
// covered by a want.
func TestAnalyzers(t *testing.T) {
	loader := repoLoader(t)
	for _, a := range Analyzers() {
		t.Run(a.Name(), func(t *testing.T) {
			pkgs := loadFixtures(t, loader, a.Name())
			var wants []expectation
			for _, p := range pkgs {
				wants = append(wants, collectWants(t, p)...)
			}
			if len(wants) < 2 {
				t.Fatalf("testdata for %s seeds %d violations; want at least 2", a.Name(), len(wants))
			}
			extra, missing := unmatched(wants, Run(pkgs, []Analyzer{a}))
			for _, d := range extra {
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for _, w := range missing {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
			}
		})
	}
}

// TestByName checks registry lookups.
func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := ByName(a.Name()); got == nil || got.Name() != a.Name() {
			t.Errorf("ByName(%q) = %v", a.Name(), got)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
}

// TestLoaderRepo smoke-tests the loader against the real module: the
// analysis package itself must load and come back clean under the suite.
func TestLoaderRepo(t *testing.T) {
	loader := repoLoader(t)
	pkgs, err := loader.Load(filepath.Join(loader.root, "internal", "units"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Analyzers())
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, d.String())
	}
	if len(diags) != 0 {
		t.Errorf("internal/units not clean:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestDiagnosticString pins the rendered diagnostic shape mealint prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "floateq", Message: "== on floating-point values"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	want := "x.go:3:7: [floateq] == on floating-point values"
	if got := fmt.Sprint(d); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
