package analysis

import (
	"go/types"
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

// keptExports are exported top-level names and methods of internal/
// packages that no non-test code uses, each with the reason it stays
// exported.
var keptExports = map[string]string{
	"mealib/internal/descriptor.Descriptor.ParamsOf":       "a comp's parameter block by invocation index, which the tests of accel, tdl and descriptor read off the descriptors they build; production code walks Scopes",
	"mealib/internal/dram.Stats.Bandwidth":                 "the simulated stream's achieved bandwidth, which accel's and trace's tests replay traces to hold RandomBandwidth to (the paper's Figure 8 method)",
	"mealib/internal/dram.Stats.RowHitRate":                "the simulated row-buffer hit rate, which accel's trace-replay tests read beside Bandwidth",
	"mealib/internal/mealibd/client.Buffer.Free":           "the client's counterpart of Alloc (MsgFree), which the mealibd tests drive over the wire",
	"mealib/internal/mealibrt.Runtime.CheckInvariants":     "the registry, quota and initialized-set invariants that close the mealibrt and mealibd tests (ROADMAP aim 3)",
	"mealib/internal/multistack.Sharded.GhostBytes":        "the halo bytes one stack receives from another per step, which multistack's and graph's tests hold the interconnect's counters to",
	"mealib/internal/noc.InterStack.BytesReceived":         "the inter-stack counters multistack's and graph's tests hold to the partition's halo",
	"mealib/internal/noc.InterStack.PairBytes":             "the inter-stack counters multistack's and graph's tests hold to the partition's halo",
	"mealib/internal/noc.InterStack.TotalBytes":            "the inter-stack counters multistack's and noc's tests hold to the partition's halo",
	"mealib/internal/phys.Region.Addr":                     "a region's base, which accel's and mealibrt's tests use to snapshot and compare the bytes a launch may touch",
	"mealib/internal/phys.Region.Bytes":                    "a region's bytes, which accel's and mealibrt's tests snapshot to prove a launch wrote nothing outside its declared spans",
	"mealib/internal/phys.Space.Region":                    "the region holding an address, which accel's, mealibrt's and vm's tests snapshot",
	"mealib/internal/phys.Space.ReadFloat32":               "one element read, which the toy accelerator's core and vm's and accel's tests use",
	"mealib/internal/sparse.CSR.ScaleColumns":              "the allocating reference graph's operator test holds the in-place PageRank scaling to",
	"mealib/internal/telemetry.Tracer.Events":              "the recorded event count, which multistack's and telemetry's tests check a traced run against",
	"mealib/internal/vm.Driver.Translate":                  "VA to PA translation, which mealibrt's tests use to check a buffer's mapping",
	"mealib/internal/apps/graph.AdjacencyFromMatrixMarket": "the entry for the paper's UF-collection graphs (Table 2's rgg_n_2_20) and the one caller of the fuzzed sparse.ReadMatrixMarket; the workloads generate their RGG instead",
	"mealib/internal/dram.DDR3":                            "the Haswell baseline's DDR3-1600 (Table 3): the memory the paper's asymmetric-mode measurement (ModeAsymmetric, §4.1) and the 3D-versus-DDR energy comparison are defined on, which dram's tests drive",
	"mealib/internal/kernels.Upper":                        "Ctrsm's other triangle: the STAP solve passes Lower with both transposes, and Upper completes the cblas_ctrsm contract Ctrsm's tests check",
	"mealib/internal/trace.Gather":                         "internal/accel's tests replay it through the DRAM simulator to hold RandomBandwidth to the trace (the paper's Figure 8 method)",
	"mealib/internal/trace.Strided":                        "internal/accel's tests replay it through the DRAM simulator to show the single-bank stride collapse",
}

// TestModuleFollowsRules loads the whole module, the nested bench/ module
// included (the loader maps it to mealib/bench), and holds it to the rules
// table and to two whole-program rules: every exported top-level identifier
// of an internal/ package, and every exported method of its types that no
// interface needs, has a use outside test files, or is kept with a reason in
// keptExports; and every internal/ object a row's uses, compared or switchOn
// entry names exists.
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
			if obj.Pkg() != nil && !strings.HasSuffix(p.Position(id.Pos()).Filename, "_test.go") {
				if k := objKey(obj); k != "" {
					used[k] = true
				}
			}
		}
	}
	ifaces := interfacesOf(pkgs)
	exported := make(map[string]bool)
	check := func(p *Pkg, obj types.Object) {
		if !obj.Exported() || strings.HasSuffix(p.Position(obj.Pos()).Filename, "_test.go") {
			return
		}
		key := objKey(obj)
		exported[key] = true
		if !used[key] && keptExports[key] == "" {
			t.Errorf("%s: %s has no use outside tests; delete it with its tests, unexport it, move it into the test that uses it, or keep it with a reason", p.Position(obj.Pos()), key)
		}
	}
	objects := make(map[string]bool) // every internal/ object a row may name
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, l.mod+"/internal/") || strings.HasSuffix(p.Path, ".test") {
			continue
		}
		objects[p.Path+".*"] = true
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			objects[objKey(obj)] = true
			check(p, obj)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				objects[objKey(m)] = true
				if !needed(named, m, ifaces) {
					check(p, m)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					objects[objKey(obj)+"."+st.Field(i).Name()] = true
				}
			}
		}
	}
	// A row entry that names no object can never match: a deleted name lives
	// on only in a tombstone pattern.
	for _, row := range ruleTable {
		for _, name := range append(append(slices.Clone(row.uses), row.compared...), row.switchOn) {
			if name = strings.TrimPrefix(name, "*"); strings.HasPrefix(name, internalPath) && !objects[name] {
				t.Errorf("the %s row (%s) names %s, which is no object of the module; drop it, or keep the name in a tombstone names pattern", row.gate, row.msg, name)
			}
		}
	}
	for key := range keptExports {
		if !exported[key] || used[key] {
			t.Errorf("keptExports lists %s, which is not an unused export", key)
		}
	}
}

// interfacesOf collects the interfaces a method may be called through
// without go/types recording a use of it: error, every package-level
// interface of the program and of what it imports, and every interface
// literal the program writes.
func interfacesOf(pkgs []*Pkg) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	return ifaces
}

// needed reports whether an interface that T or *T implements declares m.
func needed(t *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
			continue
		}
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}
