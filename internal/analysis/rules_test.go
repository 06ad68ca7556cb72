package analysis

import (
	"slices"
	"strings"
	"testing"
)

// TestRuleRows holds every row of the rules table to its fixture under
// testdata/src/rules: each row reports something there on its own, and
// without any one row some want goes unmatched, so no row can stop matching
// unnoticed. TestAnalyzers checks the whole table against the wants.
func TestRuleRows(t *testing.T) {
	pkgs := loadFixtures(t, repoLoader(t), "rules")
	var wants []expectation
	for _, p := range pkgs {
		wants = append(wants, collectWants(t, p)...)
	}
	run := func(table []rule) []Diagnostic { return Run(pkgs, []Analyzer{rules{table}}) }
	for i, row := range ruleTable {
		if len(run(ruleTable[i:i+1])) == 0 {
			t.Errorf("row %d (%s: %s) reports nothing in its fixture", i, row.gate, row.msg)
		}
		if _, missing := unmatched(wants, run(slices.Delete(slices.Clone(ruleTable), i, i+1))); len(missing) == 0 {
			t.Errorf("the fixture passes without row %d (%s: %s); give the row a case only it catches", i, row.gate, row.msg)
		}
	}
}

// keptExports are exported top-level names of internal/ packages that no
// non-test code uses, each with the reason it stays exported.
var keptExports = map[string]string{
	"mealib/internal/apps/graph.AdjacencyFromMatrixMarket": "the entry for the paper's UF-collection graphs (Table 2's rgg_n_2_20) and the one caller of the fuzzed sparse.ReadMatrixMarket; the workloads generate their RGG instead",
	"mealib/internal/dram.DDR3":                            "the Haswell baseline's DDR3-1600 (Table 3): the memory the paper's asymmetric-mode measurement (ModeAsymmetric, §4.1) and the 3D-versus-DDR energy comparison are defined on, which dram's tests drive",
	"mealib/internal/kernels.Upper":                        "Ctrsm's other triangle: the STAP solve passes Lower with both transposes, and Upper completes the cblas_ctrsm contract Ctrsm's tests check",
	"mealib/internal/trace.Gather":                         "internal/accel's tests replay it through the DRAM simulator to hold RandomBandwidth to the trace (the paper's Figure 8 method)",
	"mealib/internal/trace.Strided":                        "internal/accel's tests replay it through the DRAM simulator to show the single-bank stride collapse",
}

// TestModuleFollowsRules loads the whole module, the nested bench/ module
// included (the loader maps it to mealib/bench), and holds it to the rules
// table and to one whole-program rule: every exported top-level identifier
// of an internal/ package has a use outside test files, or is kept with a
// reason in keptExports.
func TestModuleFollowsRules(t *testing.T) {
	l := repoLoader(t)
	pkgs, err := l.LoadPatterns(l.root, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, []Analyzer{rules{ruleTable}}) {
		t.Error(d)
	}

	used := make(map[string]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() && !strings.HasSuffix(p.Position(id.Pos()).Filename, "_test.go") {
				used[objKey(obj)] = true
			}
		}
	}
	exported := make(map[string]bool)
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, l.mod+"/internal/") || strings.HasSuffix(p.Path, ".test") {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || strings.HasSuffix(p.Position(obj.Pos()).Filename, "_test.go") {
				continue
			}
			key := objKey(obj)
			exported[key] = true
			if !used[key] && keptExports[key] == "" {
				t.Errorf("%s: %s has no use outside tests; delete it with its tests, unexport it, move it into the test that uses it, or keep it with a reason", p.Position(obj.Pos()), key)
			}
		}
	}
	for key := range keptExports {
		if !exported[key] || used[key] {
			t.Errorf("keptExports lists %s, which is not an unused export", key)
		}
	}
}
