package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of the MEALib module using only
// the standard library. Module-internal imports resolve against the module
// root; standard-library imports resolve through the compiler's export
// data, falling back to type-checking $GOROOT sources. Loaded packages are
// cached, so analyzing the whole repository type-checks each package once.
type Loader struct {
	fset *token.FileSet
	root string        // module root directory (holds go.mod)
	mod  string        // module path ("mealib")
	ctx  build.Context // evaluates //go:build constraints and GOOS/GOARCH file suffixes

	std    types.Importer // export-data importer for the standard library
	stdSrc types.Importer // source fallback

	// caches, keyed by import path. dep holds packages loaded as imports
	// (without test files); full holds packages loaded for analysis (with
	// in-package test files).
	dep     map[string]*types.Package
	full    map[string]*Pkg
	loading map[string]bool
}

// NewLoader builds a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    root,
		mod:     mod,
		ctx:     build.Default,
		std:     importer.Default(),
		stdSrc:  importer.ForCompiler(fset, "source", nil),
		dep:     make(map[string]*types.Package),
		full:    make(map[string]*Pkg),
		loading: make(map[string]bool),
	}, nil
}

// Import resolves an import path: module-internal packages load from
// source, everything else is assumed to be standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.mod || strings.HasPrefix(path, l.mod+"/") {
		return l.importModule(path)
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		return pkg, nil
	}
	return l.stdSrc.Import(path)
}

// dirOf maps a module import path to its directory.
func (l *Loader) dirOf(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.mod), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// pathOf maps a directory to its module import path.
func (l *Loader) pathOf(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.mod, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.root)
	}
	return l.mod + "/" + filepath.ToSlash(rel), nil
}

// importModule loads a module package as a dependency: non-test files only.
func (l *Loader) importModule(path string) (*types.Package, error) {
	if pkg, ok := l.dep[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, _, err := l.parseDir(l.dirOf(path), false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", l.dirOf(path))
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.dep[path] = pkg
	return pkg, nil
}

// parseDir parses the .go files of one directory. With tests set, in-package
// _test.go files are included and external (name_test) test files are
// returned separately.
func (l *Loader) parseDir(dir string, tests bool) (files, xtest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !tests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctx.MatchFile(dir, name); err != nil || !ok {
			continue // excluded by //go:build constraints or GOOS/GOARCH suffix
		}
		names = append(names, name)
	}
	sort.Strings(names)
	var pkgName string
	for _, name := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if perr != nil {
			return nil, nil, perr
		}
		if !strings.HasSuffix(name, "_test.go") && pkgName == "" {
			pkgName = f.Name.Name
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			files = append(files, f)
		}
	}
	// A directory holding only external test files: treat them as the
	// package itself so they still get analyzed.
	if len(files) == 0 && len(xtest) > 0 {
		files, xtest = xtest, nil
	}
	return files, xtest, nil
}

// check type-checks one package.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(l.Import)}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	return pkg, info, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Load parses and type-checks the package in dir for analysis, including
// its in-package test files. When the directory also carries an external
// test package (package foo_test), it is loaded as a second Pkg whose path
// has a ".test" suffix.
func (l *Loader) Load(dir string) ([]*Pkg, error) {
	path, err := l.pathOf(dir)
	if err != nil {
		return nil, err
	}
	if p, ok := l.full[path]; ok {
		if xt, ok2 := l.full[path+".test"]; ok2 {
			return []*Pkg{p, xt}, nil
		}
		return []*Pkg{p}, nil
	}
	files, xtest, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	tpkg, info, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	p := &Pkg{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.full[path] = p
	out := []*Pkg{p}
	if len(xtest) > 0 {
		xpkg, xinfo, err := l.check(path+".test", xtest)
		if err != nil {
			return nil, err
		}
		xp := &Pkg{Path: path + ".test", Fset: l.fset, Files: xtest, Types: xpkg, Info: xinfo}
		l.full[path+".test"] = xp
		out = append(out, xp)
	}
	return out, nil
}

// LoadPatterns expands package patterns ("./...", "dir", "dir/...") rooted
// at base and loads every matched package.
func (l *Loader) LoadPatterns(base string, patterns []string) ([]*Pkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			start := filepath.Join(base, filepath.FromSlash(rest))
			err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		} else {
			add(filepath.Join(base, filepath.FromSlash(pat)))
		}
	}
	var pkgs []*Pkg
	for _, dir := range dirs {
		ps, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, ps...)
	}
	return pkgs, nil
}

// hasGoFiles reports whether dir directly contains a .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true
		}
	}
	return false
}

// FindModuleRoot walks up from dir to the nearest directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		abs = parent
	}
}
