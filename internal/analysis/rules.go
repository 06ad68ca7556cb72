package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// rules keeps the tree's "one X" designs: one op table, one accelerator
// entry, one executor, one tenant rule, one launch record, one walk of a
// descriptor, one extent, one price, one admission rule, one clock, one
// fan-out, one codec, one chaining rule, and a deterministic simulator. Each row of its table forbids one
// kind of code outside the places where that concept lives. Objects are
// resolved through go/types, so an aliased or dot import, a method value
// or a composite-literal key is caught, and a comment or a string is not.
// A new "one X" is a row here plus a fixture under testdata/src/rules.
type rules struct{ table []rule }

func (rules) Name() string { return "rules" }

func (rules) Doc() string {
	return "the architecture rules: each concept keeps one implementation in one place"
}

// rule is one row of the table. A row forbids what any of its matchers
// match, inside the files its places select.
//
// A place is module-relative: "dir/..." is a directory tree, "dir/file.go"
// one file, and "dir" one package's own files.
type rule struct {
	gate string // the concept the row keeps, named in every finding

	// What the row forbids.
	uses     []string       // a use of an object: "path.Name", "path.Type.Member", or "path.*", any package-level object of path
	except   []string       // names a "path.*" entry leaves alone
	names    *regexp.Regexp // tombstone: an identifier, declared or used, whose name matches
	types    *regexp.Regexp // tombstone: a declared type whose name matches
	compared []string       // an == or != with a use of one of these objects, or of nil with a value of one of these types ("*path.Type")
	switchOn string         // a switch on a value of this type ("path.Type")
	goStmt   bool           // a go statement

	// Where it is forbidden.
	in    []string // the places the row covers; none is the whole module
	allow []string // the places inside those where it is allowed
	fn    string   // only inside the function or method of this name
	tests bool     // _test.go files are covered too

	msg string
}

// internalPath is the import path prefix of the module's internal packages.
const internalPath = "mealib/internal/"

// ruleTable is the table mealint runs: one or more rows per concept, each
// with the message a finding prints.
var ruleTable = []rule{
	{gate: "op-table", switchOn: internalPath + "descriptor.OpCode",
		in:    []string{"internal/accel/...", "internal/analysis/tdlcheck/...", "internal/ccompiler/..."},
		allow: []string{"internal/accel/optable.go"},
		msg:   "a per-opcode switch grew back outside the op table"},
	{gate: "one-accelerator-entry", names: regexp.MustCompile(`^(fieldKind|fStrided|OpRates|AccelPower|InBufs|OutBufs|StrideBufs|VerifyProgram)$`),
		msg: "a second declaration of an accelerator's schema, operands, power or rate, or a second verifier of a TDL program's structure, grew back beside its op-table entry and the parser"},
	{gate: "one-executor", names: regexp.MustCompile(`streamWalk|interpretStream|runLoop|loopIndependent|SpanStream|planMaxNodes`),
		in:  []string{"internal/..."},
		msg: "a second executor or an expansion cap grew back"},
	{gate: "one-tenant", names: regexp.MustCompile(`hostAccess`),
		compared: []string{"*" + internalPath + "mealibrt.Session", internalPath + "mealibrt.defaultTenant"},
		in:       []string{"internal/mealibrt"},
		msg:      "a branch on the default tenant grew back"},
	{gate: "one-tenant", names: regexp.MustCompile(`awaitConflicting|awaitPlanFinished|^outstanding`),
		in:  []string{"internal/mealibd"},
		msg: "the fail-fast link check or mealibd's shadow queue grew back"},
	{gate: "one-launch-record", types: regexp.MustCompile(`^(waiter|flight|PendingInvocation)$`),
		names: regexp.MustCompile(`LinkController|AcquireShared|ReleaseShared`),
		in:    []string{"internal/mealibrt", "internal/accel", "internal/mealibd"},
		msg:   "a second per-launch type or the link controller's ledger grew back"},
	{gate: "one-walk", uses: []string{internalPath + "analysis/tdlcheck.Writes", internalPath + "analysis/tdlcheck.Reads"},
		in:  []string{"internal/mealibrt", "internal/mealibd"},
		msg: "a second reading of the descriptor at install grew back"},
	{gate: "one-walk", uses: []string{internalPath + "descriptor.Descriptor.Scopes"},
		in:  []string{"internal/mealibrt/...", "internal/mealibd/..."},
		msg: "a plan's descriptor is parsed again after install; read the scopes the install's verifier kept (Plan.Scopes)"},
	{gate: "one-walk", uses: []string{internalPath + "phys.NewSpace"},
		in:  []string{"internal/descriptor"},
		msg: "a scratch space in the encoder grew back"},
	{gate: "one-walk", switchOn: internalPath + "descriptor.InstrKind",
		allow: []string{"internal/descriptor"},
		msg:   "a second parser of the instruction region grew back"},
	{gate: "one-walk", names: regexp.MustCompile(`^(descBytesOf|ParamAddr|ParamSize)$`),
		msg: "a second copy of the descriptor's size arithmetic grew back"},
	{gate: "one-extent", names: regexp.MustCompile(`Extend$|nestExtent|intervalFits|stridedSpan`),
		allow: []string{"internal/span/..."},
		msg:   "a second strided-extent implementation grew back outside internal/span"},
	{gate: "one-price", names: regexp.MustCompile(`Report|merge$`),
		in:  []string{"internal/accel/sched.go"},
		msg: "a launch builds a report again"},
	{gate: "one-price", uses: []string{internalPath + "units.*"},
		names: regexp.MustCompile(`^Time$|StagingCost|DescriptorSetupLatency|Merge$|NewReport`),
		in:    []string{"internal/mealibrt"}, fn: "runOOC",
		msg: "runOOC regained a model-time variable"},
	{gate: "one-admission-rule", names: regexp.MustCompile(`flightGate|WaveHooks|waveSpansOf|olderWritesLocked|WithWavePipelining`),
		tests: true,
		msg:   "wave pipelining or its hooks grew back"},
	{gate: "one-admission-rule", uses: []string{internalPath + "mealibrt.Config.WavePipeline"},
		allow: []string{"bench/..."}, tests: true,
		msg: "a reader of Config.WavePipeline grew back"},
	{gate: "one-clock", names: regexp.MustCompile(`idleWindows|idleIvl|billedIdle|egressFree|ingressFree|egressBusy|inLink|outLink|accelT`),
		msg: "a union of billed idle windows or a serial-link ledger of its own grew back"},
	{gate: "one-fan-out", uses: []string{"runtime.GOMAXPROCS"},
		allow: []string{"internal/par/...", "bench/..."},
		msg:   "a runtime.GOMAXPROCS call grew back outside internal/par"},
	{gate: "one-fan-out", goStmt: true,
		allow: []string{"internal/par/...", "internal/mealibrt/runtime.go", "internal/mealibrt/ooc.go", "internal/mealibd/server.go", "cmd/mealibd/...", "bench/..."},
		msg:   "a fan-out of its own grew back outside internal/par; a go statement starts only a flight, the OOC prefetch and mealibd's connections"},
	{gate: "one-codec", names: regexp.MustCompile(`^(ViewFloat32s|ViewComplex64s|ViewInt32s|Float32View|Complex64View|Int32View|f32sOf|c64sOf|i32sOf|F32ToBytes|BytesToF32|C64ToBytes|BytesToC64|I32ToBytes|BytesToI32|getF32|getC64)$`),
		msg: "a per-type view, element codec or scratch getter grew back"},
	{gate: "one-fusion", names: regexp.MustCompile(`^(Fuse|MergePasses|FusionGroups)$`),
		msg: "a second chaining rule grew back"},
	{gate: "one-fusion", uses: []string{internalPath + "accel.Config.NoFusion"},
		allow: []string{"internal/accel/...", "internal/exp/ablations.go"},
		msg:   "a reader of Config.NoFusion outside the plan lowering grew back"},
	{gate: "detrand", uses: []string{"time.Now", "math/rand.*", "math/rand/v2.*"},
		except: []string{"New", "NewSource", "NewZipf", "Rand", "Source", "Source64", "Zipf", "PCG", "ChaCha8"},
		in:     []string{"internal/..."}, allow: []string{"internal/exp/...", "internal/telemetry"}, tests: true,
		msg: "wall-clock time or a global math/rand source in a deterministic simulator package; take time from the model clock and randomness from rand.New(rand.NewSource(seed))"},
}

func (r rules) Run(p *Pkg) []Diagnostic {
	dir := strings.TrimPrefix(strings.TrimPrefix(strings.TrimSuffix(p.Path, ".test"), p.modulePath()), "/")
	var out []Diagnostic
	for _, f := range p.Files {
		file := path.Join(dir, filepath.Base(p.Position(f.Pos()).Filename))
		var rows []*rule
		for i := range r.table {
			if row := &r.table[i]; row.covers(file) {
				rows = append(rows, row)
			}
		}
		for _, d := range f.Decls {
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				for _, row := range rows {
					if row.fn != "" && row.fn != fn {
						continue
					}
					if what := row.forbids(p, n); what != "" {
						out = append(out, Diagnostic{
							Pos:      p.Position(n.Pos()),
							Analyzer: "rules",
							Message:  fmt.Sprintf("%s: %s: %s", row.gate, what, row.msg),
						})
					}
				}
				return true
			})
		}
	}
	return out
}

// covers reports whether the row applies to the module-relative file.
func (r *rule) covers(file string) bool {
	if !r.tests && strings.HasSuffix(file, "_test.go") {
		return false
	}
	return (len(r.in) == 0 || within(r.in, file)) && !within(r.allow, file)
}

// within reports whether the module-relative file is in one of the places.
func within(places []string, file string) bool {
	for _, pl := range places {
		if d, ok := strings.CutSuffix(pl, "/..."); ok && strings.HasPrefix(file, d+"/") ||
			strings.HasSuffix(pl, ".go") && file == pl ||
			path.Dir(file) == pl {
			return true
		}
	}
	return false
}

// forbids describes what the row forbids at n, or returns "".
func (r *rule) forbids(p *Pkg, n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[n]; obj != nil && r.used(obj) {
			return qualified(obj)
		}
		if r.names != nil && r.names.MatchString(n.Name) {
			return n.Name
		}
		if _, ok := p.Info.Defs[n].(*types.TypeName); ok && r.types != nil && r.types.MatchString(n.Name) {
			return "type " + n.Name
		}
	case *ast.GoStmt:
		if r.goStmt {
			return "go statement"
		}
	case *ast.SwitchStmt:
		if r.switchOn != "" && n.Tag != nil && typeKey(p.Info.TypeOf(n.Tag)) == r.switchOn {
			return "switch on " + p.Info.TypeOf(n.Tag).String()
		}
	case *ast.BinaryExpr:
		if len(r.compared) == 0 || n.Op != token.EQL && n.Op != token.NEQ {
			break
		}
		for _, xy := range [2][2]ast.Expr{{n.X, n.Y}, {n.Y, n.X}} {
			if obj := p.Info.Uses[identOf(xy[0])]; obj != nil && slices.Contains(r.compared, objKey(obj)) {
				return "comparison with " + qualified(obj)
			}
			if t := p.Info.TypeOf(xy[0]); p.Info.Types[xy[1]].IsNil() && slices.Contains(r.compared, typeKey(t)) {
				return t.String() + " compared with nil"
			}
		}
	}
	return ""
}

// used reports whether the row forbids a use of obj.
func (r *rule) used(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	for _, u := range r.uses {
		i := strings.LastIndexByte(u, '.')
		switch name := u[i+1:]; {
		case name == "*":
			if u[:i] == pkg.Path() && obj.Parent() == pkg.Scope() && !slices.Contains(r.except, obj.Name()) {
				return true
			}
		case name == obj.Name() && objKey(obj) == u:
			return true
		}
	}
	return false
}

// objKey names obj as the table does: "path.Name" for a package-level
// object, "path.Type.Name" for a method or a field, "" for anything else.
func objKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return ""
	}
	if obj.Parent() == pkg.Scope() {
		return pkg.Path() + "." + obj.Name()
	}
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			if owner := typeKey(recv.Type()); owner != "" {
				return strings.TrimPrefix(owner, "*") + "." + o.Name()
			}
		}
	case *types.Var:
		if !o.IsField() {
			return ""
		}
		o = o.Origin()
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if st.Field(i) == o {
						return pkg.Path() + "." + name + "." + o.Name()
					}
				}
			}
		}
	}
	return ""
}

// typeKey names a named type, or a pointer to one, as "path.Type" or
// "*path.Type"; other types give "".
func typeKey(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		if k := typeKey(ptr.Elem()); k != "" {
			return "*" + k
		}
		return ""
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	return ""
}

// qualified prints obj as its package name and its key's tail:
// "runtime.GOMAXPROCS", "accel.Config.NoFusion".
func qualified(obj types.Object) string {
	k := objKey(obj)
	return obj.Pkg().Name() + k[len(obj.Pkg().Path()):]
}

// identOf returns the identifier an operand names, directly or as a
// selector, or nil.
func identOf(e ast.Expr) *ast.Ident {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}
