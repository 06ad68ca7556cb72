package ccompiler

import (
	"fmt"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
)

// Options configures a compilation.
type Options struct {
	// Symbols supplies compile-time integer constants (what #define or
	// -D would provide); loop compaction needs concrete trip counts.
	Symbols map[string]int64
}

// BufferDecl records one accelerator-visible buffer discovered in the
// source: either a malloc'ed pointer or a declared array.
type BufferDecl struct {
	Name     string
	ElemSize int64
	// SizeExpr is the malloc byte-size expression ("" for declared arrays).
	SizeExpr string
	// Dims are the declared array dimension expressions (nil for pointers).
	Dims []string
	Line int
}

// LoopLevel is one level of a compacted loop nest.
type LoopLevel struct {
	Var   string
	Count int64
}

// offsetTerm contributes expr*Mult bytes to a buffer field's bind-time base
// offset (constant indices of an element reference).
type offsetTerm struct {
	Expr string
	Mult int64
}

// PlannedCall is one accelerator invocation inside a generated plan.
type PlannedCall struct {
	Sym      *SymCall
	ParamRef string
	// Strides give the per-loop-level byte strides of each buffer field
	// (indexed by field position) when the call sits inside a LOOP.
	Strides map[int][4]int64
	// Offsets give bind-time constant offset terms per buffer field.
	Offsets map[int][]offsetTerm
}

// Plan is one generated accelerator descriptor: a TDL program plus the
// symbolic parameter table its references resolve against.
type Plan struct {
	Name  string
	TDL   string
	Calls []*PlannedCall
	// Loop is the compacted nest (nil for plain passes).
	Loop []LoopLevel
	// CoveredCalls counts the original library calls this plan replaces.
	CoveredCalls int64
}

// Stats summarises a compilation (feeds the §5.5 "17M calls into 3
// descriptors" accounting).
type Stats struct {
	CallSites      int   // accelerable call sites recognised
	CoveredCalls   int64 // dynamic library calls covered by descriptors
	Descriptors    int
	ChainedPasses  int
	CompactedLoops int
	MallocRewrites int
	FreeRewrites   int
}

// Result is a finished source-to-source compilation.
type Result struct {
	Source  string
	Plans   []*Plan
	Buffers map[string]*BufferDecl
	Stats   Stats
}

// compiler carries the walk state.
type compiler struct {
	opts    Options
	rec     *recognizer
	buffers map[string]*BufferDecl
	plans   []*Plan
	stats   Stats
	nparam  int
	errs    []error
}

// Compile runs the source-to-source compiler over a C translation unit.
func Compile(src string, opts Options) (*Result, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	tree, err := ParseC(toks)
	if err != nil {
		return nil, err
	}
	if opts.Symbols == nil {
		opts.Symbols = map[string]int64{}
	}
	c := &compiler{
		opts:    opts,
		rec:     newRecognizer(opts.Symbols),
		buffers: make(map[string]*BufferDecl),
	}
	c.walkBlock(tree)
	if len(c.errs) > 0 {
		return nil, c.errs[0]
	}
	return &Result{
		Source:  Emit(tree),
		Plans:   c.plans,
		Buffers: c.buffers,
		Stats:   c.stats,
	}, nil
}

// elemSizeOf maps C element types to byte sizes.
func elemSizeOf(typ string) (int64, bool) {
	switch typ {
	case "float", "int", "int32_t", "unsigned", "MKL_INT":
		return 4, true
	case "double", "complex", "fftwf_complex", "MKL_Complex8", "long", "int64_t", "size_t":
		return 8, true
	}
	return 0, false
}

// walkBlock processes one statement block.
func (c *compiler) walkBlock(blk *BlockNode) {
	// Process the block in program order: declarations, plan records,
	// malloc/free rewrites, loop compaction, and the chaining optimization
	// over runs of adjacent accelerated calls (paper §3.4 pass 1).
	var run []callSite
	flush := func() {
		if len(run) == 0 {
			return
		}
		syms := make([]*SymCall, len(run))
		nodes := make([]*Simple, len(run))
		for k, r := range run {
			syms[k] = r.sym
			nodes[k] = r.node
		}
		c.emitPassPlan(run[0].node, syms, nodes)
		if len(run) > 1 {
			c.stats.ChainedPasses++
		}
		run = nil
	}
	for i, n := range blk.Nodes {
		switch v := n.(type) {
		case *Simple:
			if c.scanDeclaration(v) || c.scanIodimInit(v) || c.scanPlanDecl(v) ||
				c.scanMalloc(v) || c.scanFree(v) {
				flush()
				continue
			}
			call, ok := parseCallStmt(v.Toks)
			if !ok {
				flush()
				continue
			}
			sym, err := c.rec.recognise(call)
			if err != nil {
				c.errs = append(c.errs, fmt.Errorf("ccompiler: %w", err))
				flush()
				continue
			}
			if sym == nil {
				flush()
				continue
			}
			if len(run) > 0 && !chainable(run[len(run)-1].sym, sym) {
				flush()
			}
			run = append(run, callSite{node: v, sym: sym})
		case *BracedNode:
			flush()
			c.walkBlock(v.Body)
		case *ForNode:
			flush()
			// An OpenMP parallel-for pragma directly above marks the nest.
			if i > 0 {
				if pl, ok := blk.Nodes[i-1].(*PragmaLine); ok &&
					strings.Contains(pl.Text, "omp") && strings.Contains(pl.Text, "for") {
					v.OMP = true
				}
			}
			if !c.tryCompactLoop(v, v, nil) {
				c.walkBlock(v.Body)
			}
		case *PragmaLine:
			// Pragmas do not break a chainable run.
		}
	}
	flush()
}

// callSite pairs a recognised call with its statement node.
type callSite struct {
	node *Simple
	sym  *SymCall
}

// chainable reports whether an output buffer of the first call is an input
// buffer of the second.
func chainable(a, b *SymCall) bool {
	for oi, out := range a.Fields {
		for ii, in := range b.Fields {
			if a.Schema[oi].Out && b.Schema[ii].In && out.Buf.Name != "" && out.Buf.Name == in.Buf.Name {
				return true
			}
		}
	}
	return false
}

// scanDeclaration records array declarations like "float a[N][M];" and
// pointer declarations like "float *x;".
func (c *compiler) scanDeclaration(s *Simple) bool {
	toks := s.Toks
	if len(toks) < 2 || toks[0].Kind != TokIdent {
		return false
	}
	elem, ok := elemSizeOf(toks[0].Text)
	if !ok {
		return false
	}
	i := 1
	// Optional "complex" as in "float complex".
	if toks[i].Kind == TokIdent && toks[i].Text == "complex" {
		elem = 8
		i++
	}
	pointer := false
	for i < len(toks) && toks[i].Kind == TokPunct && toks[i].Text == "*" {
		pointer = true
		i++
	}
	if i >= len(toks) || toks[i].Kind != TokIdent {
		return false
	}
	name := toks[i].Text
	i++
	var dims []string
	for i < len(toks) && toks[i].Kind == TokPunct && toks[i].Text == "[" {
		depth := 0
		var dim []Token
		for ; i < len(toks); i++ {
			if toks[i].Kind == TokPunct && toks[i].Text == "[" {
				depth++
				if depth == 1 {
					continue
				}
			}
			if toks[i].Kind == TokPunct && toks[i].Text == "]" {
				depth--
				if depth == 0 {
					i++
					break
				}
			}
			dim = append(dim, toks[i])
		}
		dims = append(dims, renderTokens(dim))
	}
	// Anything left (initialisers, extra declarators) keeps the statement
	// as-is; we only record the shape.
	if len(dims) == 0 && !pointer {
		return false // plain scalar declaration
	}
	c.buffers[name] = &BufferDecl{Name: name, ElemSize: elem, Dims: dims, Line: toks[0].Line}
	return false // declaration text is kept verbatim
}

// scanIodimInit records fftwf_iodim array initialisers:
// "fftwf_iodim dims[] = { {a,b,c}, {d,e,f} };"
func (c *compiler) scanIodimInit(s *Simple) bool {
	toks := s.Toks
	if len(toks) < 4 || toks[0].Kind != TokIdent || !strings.Contains(toks[0].Text, "iodim") {
		return false
	}
	if toks[1].Kind != TokIdent {
		return false
	}
	name := toks[1].Text
	eq := -1
	for i, t := range toks {
		if t.Kind == TokPunct && t.Text == "=" {
			eq = i
			break
		}
	}
	if eq < 0 {
		return false
	}
	// Parse { {a,b,c}, ... }.
	var triples [][3]string
	var cur []string
	var field []Token
	depth := 0
	for _, t := range toks[eq+1:] {
		if t.Kind == TokPunct {
			switch t.Text {
			case "{":
				depth++
				continue
			case "}":
				if depth == 2 {
					cur = append(cur, renderTokens(field))
					field = nil
					if len(cur) == 3 {
						triples = append(triples, [3]string{cur[0], cur[1], cur[2]})
					}
					cur = nil
				}
				depth--
				continue
			case ",":
				if depth == 2 {
					cur = append(cur, renderTokens(field))
					field = nil
					continue
				}
				if depth == 1 {
					continue
				}
			}
		}
		if depth == 2 {
			field = append(field, t)
		}
	}
	if len(triples) == 0 {
		return false
	}
	c.rec.dims[name] = triples
	return false // keep the declaration in the output
}

// scanPlanDecl records "plan = fftwf_plan_guru_dft(...)" statements and
// comments them out (the plan is folded into the descriptor).
func (c *compiler) scanPlanDecl(s *Simple) bool {
	call, ok := parseCallStmt(s.Toks)
	if !ok || call.name != "fftwf_plan_guru_dft" || call.target == "" {
		return false
	}
	if len(call.args) != 8 {
		c.errs = append(c.errs, fmt.Errorf("ccompiler: line %d: fftwf_plan_guru_dft expects 8 args, got %d", call.line, len(call.args)))
		return true
	}
	rank, err := EvalInt(call.args[0], c.opts.Symbols)
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("ccompiler: line %d: plan rank: %w", call.line, err))
		return true
	}
	in, oki := parseBufRef(call.args[4])
	out, oko := parseBufRef(call.args[5])
	if !oki || !oko {
		c.errs = append(c.errs, fmt.Errorf("ccompiler: line %d: plan buffers not recognisable", call.line))
		return true
	}
	// The declarator may carry a type ("fftwf_plan p = ..."): use the last
	// identifier of the target as the plan name.
	nameToks := strings.Fields(call.target)
	name := nameToks[len(nameToks)-1]
	c.rec.plans[name] = &fftwPlan{
		rank:        rank,
		dims:        strings.TrimSpace(call.args[1]),
		howmanyDims: strings.TrimSpace(call.args[3]),
		in:          in,
		out:         out,
	}
	s.replacement = []string{fmt.Sprintf("/* MEALib: plan %q folded into an accelerator descriptor */", name)}
	return true
}

// scanMalloc rewrites "x = malloc(size)" (with optional cast) to
// mealib_mem_alloc and records the buffer.
func (c *compiler) scanMalloc(s *Simple) bool {
	call, ok := parseCallStmt(s.Toks)
	if !ok || call.name != "malloc" || call.target == "" || len(call.args) != 1 {
		return false
	}
	nameToks := strings.Fields(strings.ReplaceAll(call.target, "*", " "))
	name := nameToks[len(nameToks)-1]
	decl := c.buffers[name]
	if decl == nil {
		decl = &BufferDecl{Name: name, ElemSize: 4, Line: call.line}
		c.buffers[name] = decl
	}
	decl.SizeExpr = call.args[0]
	s.replacement = []string{fmt.Sprintf("%s = mealib_mem_alloc(%s); /* MEALib: physically contiguous */", call.target, call.args[0])}
	c.stats.MallocRewrites++
	return true
}

// scanFree rewrites "free(x)" for known buffers.
func (c *compiler) scanFree(s *Simple) bool {
	call, ok := parseCallStmt(s.Toks)
	if !ok || call.name != "free" || len(call.args) != 1 {
		return false
	}
	name := strings.TrimSpace(call.args[0])
	if _, known := c.buffers[name]; !known {
		return false
	}
	s.replacement = []string{fmt.Sprintf("mealib_mem_free(%s);", name)}
	c.stats.FreeRewrites++
	return true
}

// forHeader extracts (var, count) from a canonical "v = lo; v < hi; ++v"
// header.
func (c *compiler) forHeader(f *ForNode) (string, int64, bool) {
	init, cond, post := f.Init, f.Cond, f.Post
	// init: [type] var = expr
	vi := 0
	if len(init) >= 2 && init[0].Kind == TokIdent {
		if _, isType := elemSizeOf(init[0].Text); isType && init[1].Kind == TokIdent {
			vi = 1
		}
	}
	if len(init) < vi+3 || init[vi].Kind != TokIdent ||
		init[vi+1].Kind != TokPunct || init[vi+1].Text != "=" {
		return "", 0, false
	}
	v := init[vi].Text
	lo, err := EvalInt(renderTokens(init[vi+2:]), c.opts.Symbols)
	if err != nil {
		return "", 0, false
	}
	// cond: var < expr
	if len(cond) < 3 || cond[0].Kind != TokIdent || cond[0].Text != v ||
		cond[1].Kind != TokPunct || cond[1].Text != "<" {
		return "", 0, false
	}
	hi, err := EvalInt(renderTokens(cond[2:]), c.opts.Symbols)
	if err != nil {
		return "", 0, false
	}
	// post: ++v, v++, v += 1
	okPost := false
	switch {
	case len(post) == 2 && post[0].Kind == TokPunct && post[0].Text == "++" && post[1].Text == v:
		okPost = true
	case len(post) == 2 && post[1].Kind == TokPunct && post[1].Text == "++" && post[0].Text == v:
		okPost = true
	case len(post) == 3 && post[0].Text == v && post[1].Text == "+=" && post[2].Text == "1":
		okPost = true
	}
	if !okPost || hi <= lo {
		return "", 0, false
	}
	return v, hi - lo, true
}

// tryCompactLoop flattens a perfect loop nest whose innermost body is a
// single accelerated call into one LOOP-block descriptor (paper §3.4:
// "more than 16M function calls of cblas_cdotc_sub are finally translated
// into only one accelerator invocation").
func (c *compiler) tryCompactLoop(root, f *ForNode, outer []LoopLevel) bool {
	v, count, ok := c.forHeader(f)
	if !ok {
		return false
	}
	levels := append(append([]LoopLevel(nil), outer...), LoopLevel{Var: v, Count: count})
	if len(levels) > descriptor.MaxLoopLevels {
		return false
	}
	// The body must be either a deeper loop or a run of accelerated calls
	// that chain into one pass (the SAR RESMP->FFT pattern inside a loop).
	var inner []Node
	for _, n := range f.Body.Nodes {
		if _, isPragma := n.(*PragmaLine); !isPragma {
			inner = append(inner, n)
		}
	}
	if len(inner) == 0 {
		return false
	}
	if nested, ok := inner[0].(*ForNode); ok && len(inner) == 1 {
		return c.tryCompactLoop(root, nested, levels)
	}
	var pcs []*PlannedCall
	var prev *SymCall
	for _, node := range inner {
		stmt, ok := node.(*Simple)
		if !ok {
			return false
		}
		call, ok := parseCallStmt(stmt.Toks)
		if !ok {
			return false
		}
		sym, err := c.rec.recognise(call)
		if err != nil || sym == nil {
			return false
		}
		if prev != nil && !chainable(prev, sym) {
			return false // multiple statements must form one datapath
		}
		pc, ok := c.deriveStrides(sym, levels)
		if !ok {
			return false
		}
		pcs = append(pcs, pc)
		prev = sym
	}
	c.emitLoopPlan(root, pcs, levels)
	return true
}

// deriveStrides computes per-level byte strides for each buffer field of a
// compacted call: a loop variable used as index k of a buffer advances the
// base address by elemSize times the product of the dimensions to the
// right of axis k.
func (c *compiler) deriveStrides(sym *SymCall, levels []LoopLevel) (*PlannedCall, bool) {
	loopVar := func(expr string) int {
		for li, l := range levels {
			if strings.TrimSpace(expr) == l.Var {
				return li
			}
		}
		return -1
	}
	usesAnyVar := func(expr string) bool {
		toks, err := Lex(expr)
		if err != nil {
			return true
		}
		for _, t := range toks {
			if t.Kind == TokIdent {
				for _, l := range levels {
					if t.Text == l.Var {
						return true
					}
				}
			}
		}
		return false
	}
	pc := &PlannedCall{
		Sym:     sym,
		Strides: make(map[int][4]int64),
		Offsets: make(map[int][]offsetTerm),
	}
	base := descriptor.MaxLoopLevels - len(levels)
	for fi, field := range sym.Fields {
		if sym.Schema[fi].Kind != accel.FieldAddr {
			if usesAnyVar(field.Expr) {
				return nil, false // a size/scalar parameter varies per iteration
			}
			continue
		}
		ref := field.Buf
		if len(ref.Index) == 0 {
			continue // bare pointer: no per-iteration movement
		}
		decl := c.buffers[ref.Name]
		if decl == nil || len(decl.Dims) < len(ref.Index) {
			return nil, false
		}
		// suffix[k]: elements spanned by one step of axis k.
		suffix := make([]int64, len(ref.Index))
		prod := int64(1)
		for k := len(ref.Index) - 1; k >= 0; k-- {
			suffix[k] = prod
			dim, err := EvalInt(decl.Dims[len(decl.Dims)-len(ref.Index)+k], c.opts.Symbols)
			if err != nil {
				// Unknown trailing dims only matter left of this axis.
				if k > 0 {
					return nil, false
				}
			}
			prod *= dim
		}
		var strides [4]int64
		for k, ixExpr := range ref.Index {
			mult := decl.ElemSize * suffix[k]
			if li := loopVar(ixExpr); li >= 0 {
				strides[base+li] += mult
				continue
			}
			if usesAnyVar(ixExpr) {
				return nil, false // e.g. a[i+1]: not a bare var, not constant
			}
			if strings.TrimSpace(ixExpr) != "0" {
				pc.Offsets[fi] = append(pc.Offsets[fi], offsetTerm{Expr: ixExpr, Mult: mult})
			}
		}
		if strides != [4]int64{} {
			if !sym.Schema[fi].Strided {
				return nil, false // the accelerator cannot move this address per iteration
			}
			pc.Strides[fi] = strides
		}
	}
	return pc, true
}

// emitPassPlan replaces a run of (possibly chained) call statements with
// one accelerator plan.
func (c *compiler) emitPassPlan(first *Simple, syms []*SymCall, nodes []*Simple) {
	plan := &Plan{Name: fmt.Sprintf("__mealib_plan_%d", len(c.plans))}
	var comps []string
	for _, sym := range syms {
		ref := fmt.Sprintf("p%d.para", c.nparam)
		c.nparam++
		plan.Calls = append(plan.Calls, &PlannedCall{
			Sym: sym, ParamRef: ref,
			Strides: map[int][4]int64{},
			Offsets: c.constOffsets(sym),
		})
		comps = append(comps, fmt.Sprintf("COMP %s PARAMS %q", sym.Op, ref))
		c.stats.CallSites++
	}
	plan.TDL = "PASS { " + strings.Join(comps, " ") + " }"
	plan.CoveredCalls = int64(len(syms))
	c.stats.CoveredCalls += plan.CoveredCalls
	c.stats.Descriptors++
	c.plans = append(c.plans, plan)

	names := make([]string, len(syms))
	for i, s := range syms {
		names[i] = s.Name
	}
	first.replacement = []string{
		fmt.Sprintf("/* MEALib: %s -> %s */", strings.Join(names, " + "), plan.Name),
		fmt.Sprintf("acc_plan %s = mealib_acc_plan(%q, NULL, 0, NULL, 0);", plan.Name, plan.TDL),
		fmt.Sprintf("mealib_acc_execute(%s);", plan.Name),
		fmt.Sprintf("mealib_acc_destroy(%s);", plan.Name),
	}
	for _, n := range nodes[1:] {
		n.replacement = []string{fmt.Sprintf("/* MEALib: chained into %s */", plan.Name)}
	}
}

// constOffsets derives the constant index offsets of a non-loop call.
func (c *compiler) constOffsets(sym *SymCall) map[int][]offsetTerm {
	out := make(map[int][]offsetTerm)
	for fi, field := range sym.Fields {
		if len(field.Buf.Index) == 0 {
			continue
		}
		decl := c.buffers[field.Buf.Name]
		if decl == nil || len(decl.Dims) < len(field.Buf.Index) {
			continue
		}
		suffix := make([]int64, len(field.Buf.Index))
		prod := int64(1)
		for k := len(field.Buf.Index) - 1; k >= 0; k-- {
			suffix[k] = prod
			if dim, err := EvalInt(decl.Dims[len(decl.Dims)-len(field.Buf.Index)+k], c.opts.Symbols); err == nil {
				prod *= dim
			}
		}
		for k, ix := range field.Buf.Index {
			if strings.TrimSpace(ix) != "0" {
				out[fi] = append(out[fi], offsetTerm{Expr: ix, Mult: decl.ElemSize * suffix[k]})
			}
		}
	}
	return out
}

// emitLoopPlan replaces a compacted loop nest with one LOOP-block plan
// whose single pass chains every call in the nest body.
func (c *compiler) emitLoopPlan(f *ForNode, pcs []*PlannedCall, levels []LoopLevel) {
	plan := &Plan{Name: fmt.Sprintf("__mealib_plan_%d", len(c.plans)), Loop: levels}
	var comps []string
	var names []string
	for _, pc := range pcs {
		ref := fmt.Sprintf("p%d.para", c.nparam)
		c.nparam++
		pc.ParamRef = ref
		comps = append(comps, fmt.Sprintf("COMP %s PARAMS %q", pc.Sym.Op, ref))
		names = append(names, pc.Sym.Name)
		c.stats.CallSites++
	}
	plan.Calls = pcs
	counts := make([]string, len(levels))
	total := int64(1)
	for i, l := range levels {
		counts[i] = fmt.Sprintf("%d", l.Count)
		total *= l.Count
	}
	plan.TDL = fmt.Sprintf("LOOP %s { PASS { %s } }",
		strings.Join(counts, " "), strings.Join(comps, " "))
	plan.CoveredCalls = total * int64(len(pcs))
	c.stats.CoveredCalls += plan.CoveredCalls
	c.stats.Descriptors++
	c.stats.CompactedLoops++
	if len(pcs) > 1 {
		c.stats.ChainedPasses++
	}
	c.plans = append(c.plans, plan)

	f.replacement = []string{
		fmt.Sprintf("/* MEALib: %d calls of %s compacted into one LOOP descriptor */",
			plan.CoveredCalls, strings.Join(names, " + ")),
		fmt.Sprintf("acc_plan %s = mealib_acc_plan(%q, NULL, 0, NULL, 0);", plan.Name, plan.TDL),
		fmt.Sprintf("mealib_acc_execute(%s);", plan.Name),
		fmt.Sprintf("mealib_acc_destroy(%s);", plan.Name),
	}
}
