package ccompiler

import (
	"fmt"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
)

// BufRef is a symbolic reference to (an element of) a user buffer.
type BufRef struct {
	Name string
	// Index holds the index expressions of a[...][...]... access (empty
	// for the bare pointer).
	Index []string
}

// String renders the reference.
func (b BufRef) String() string {
	s := b.Name
	for _, ix := range b.Index {
		s += "[" + ix + "]"
	}
	return s
}

// SymField is one head field of an accelerator's parameter block before
// binding: an expression, or at an address field of the schema a buffer
// reference.
type SymField struct {
	Expr string
	Buf  BufRef
}

func expr(e string) SymField { return SymField{Expr: e} }
func buf(b BufRef) SymField  { return SymField{Buf: b} }

// SymCall is one recognised, accelerable library call with its parameters
// laid out in the target accelerator's argument order (stride fields are
// appended by the binder).
type SymCall struct {
	Op   descriptor.OpCode
	Name string // original API name
	Line int
	// Fields are the head fields of Op's parameter block, in order; any the
	// call leaves off are zero.
	Fields []SymField
	// Schema is Op's head as the op table declares it: what each field holds,
	// which addresses are strided, and which operands Op reads and writes (the
	// chaining optimization's inputs and outputs).
	Schema []accel.Field
}

// symCall lays a recognised call's fields out on op's schema.
func symCall(c *call, op descriptor.OpCode, name string, fields ...SymField) (*SymCall, error) {
	schema, err := accel.Schema(op)
	if err != nil {
		return nil, err
	}
	return &SymCall{Op: op, Name: name, Line: c.line, Fields: fields, Schema: schema}, nil
}

// call is a syntactic function call split into argument expressions.
type call struct {
	name   string
	args   []string
	target string // assignment target expression, "" if none
	line   int
}

// parseCallStmt recognises "target = name(args);" or "name(args);" in a
// simple statement's tokens.
func parseCallStmt(toks []Token) (*call, bool) {
	if len(toks) < 3 {
		return nil, false
	}
	// Find the call head: IDENT '(' at top level, possibly after "tgt =".
	eq := -1
	depth := 0
	for i, t := range toks {
		if t.Kind == TokPunct {
			switch t.Text {
			case "(", "[":
				depth++
			case ")", "]":
				depth--
			case "=":
				if depth == 0 && eq == -1 {
					eq = i
				}
			}
		}
	}
	start := 0
	target := ""
	if eq > 0 {
		target = renderTokens(toks[:eq])
		start = eq + 1
	}
	rest := toks[start:]
	// Skip a leading cast: "(float complex *) malloc(...)".
	if len(rest) > 0 && rest[0].Kind == TokPunct && rest[0].Text == "(" {
		depth := 0
		close := -1
		for i, t := range rest {
			if t.Kind != TokPunct {
				continue
			}
			if t.Text == "(" {
				depth++
			} else if t.Text == ")" {
				depth--
				if depth == 0 {
					close = i
					break
				}
			}
		}
		// A cast contains a '*' (pointer type) and is followed by the call.
		isCast := false
		for _, t := range rest[:close+1] {
			if t.Kind == TokPunct && t.Text == "*" {
				isCast = true
			}
		}
		if close > 0 && isCast && close+1 < len(rest) && rest[close+1].Kind == TokIdent {
			rest = rest[close+1:]
		}
	}
	if len(rest) < 3 || rest[0].Kind != TokIdent ||
		rest[1].Kind != TokPunct || rest[1].Text != "(" {
		return nil, false
	}
	if rest[len(rest)-1].Kind != TokPunct || rest[len(rest)-1].Text != ")" {
		return nil, false
	}
	c := &call{name: rest[0].Text, target: target, line: rest[0].Line}
	// Split args on top-level commas.
	depth = 0
	var cur []Token
	for _, t := range rest[2 : len(rest)-1] {
		if t.Kind == TokPunct {
			switch t.Text {
			case "(", "[":
				depth++
			case ")", "]":
				depth--
			case ",":
				if depth == 0 {
					c.args = append(c.args, renderTokens(cur))
					cur = nil
					continue
				}
			}
		}
		cur = append(cur, t)
	}
	if len(cur) > 0 {
		c.args = append(c.args, renderTokens(cur))
	}
	return c, true
}

// parseBufRef parses expressions like "x", "&x[i][0]", "a + off" (the last
// is rejected), returning the buffer reference.
func parseBufRef(expr string) (BufRef, bool) {
	s := strings.TrimSpace(expr)
	s = strings.TrimPrefix(s, "&")
	s = strings.TrimSpace(s)
	// Strip a leading cast "( type * )".
	for strings.HasPrefix(s, "(") {
		close := strings.Index(s, ")")
		if close < 0 {
			return BufRef{}, false
		}
		inner := s[1:close]
		if strings.ContainsAny(inner, "*") || isSimpleIdent(inner) {
			// Either a cast or a parenthesised identifier; for the latter,
			// unwrap only if the close paren ends the string.
			if strings.ContainsAny(inner, "*") {
				s = strings.TrimSpace(s[close+1:])
				continue
			}
		}
		break
	}
	name := s
	var index []string
	if i := strings.IndexByte(s, '['); i >= 0 {
		name = strings.TrimSpace(s[:i])
		rest := s[i:]
		for len(rest) > 0 {
			if rest[0] != '[' {
				return BufRef{}, false
			}
			depth := 0
			j := 0
			for ; j < len(rest); j++ {
				if rest[j] == '[' {
					depth++
				} else if rest[j] == ']' {
					depth--
					if depth == 0 {
						break
					}
				}
			}
			if j >= len(rest) {
				return BufRef{}, false
			}
			index = append(index, strings.TrimSpace(rest[1:j]))
			rest = rest[j+1:]
		}
	}
	if !isSimpleIdent(name) {
		return BufRef{}, false
	}
	return BufRef{Name: name, Index: index}, true
}

// stripDeref removes a leading '&' or '*' from an argument expression.
func stripDeref(expr string) string {
	s := strings.TrimSpace(expr)
	s = strings.TrimPrefix(s, "&")
	s = strings.TrimPrefix(s, "*")
	return strings.TrimSpace(s)
}

// fftwPlan records one fftwf_plan_guru_dft call site.
type fftwPlan struct {
	rank        int64
	dims        string // dims array variable name ("" for rank 0)
	howmanyDims string
	in, out     BufRef
}

// recognizer turns calls into SymCalls. It carries the symbol table (for
// ranks and dim-array initializers collected during the walk).
type recognizer struct {
	syms  map[string]int64
	dims  map[string][][3]string // iodim array name -> {n, is, os} triples
	plans map[string]*fftwPlan
}

func newRecognizer(syms map[string]int64) *recognizer {
	return &recognizer{
		syms:  syms,
		dims:  make(map[string][][3]string),
		plans: make(map[string]*fftwPlan),
	}
}

// recognise maps one call to a SymCall, or returns nil if the call is not
// accelerable (unknown API or unsupported argument shape).
func (r *recognizer) recognise(c *call) (*SymCall, error) {
	switch c.name {
	case "cblas_saxpy":
		// cblas_saxpy(n, alpha, x, incx, y, incy)
		if len(c.args) != 6 {
			return nil, fmt.Errorf("line %d: cblas_saxpy expects 6 args, got %d", c.line, len(c.args))
		}
		x, okx := parseBufRef(c.args[2])
		y, oky := parseBufRef(c.args[4])
		if !okx || !oky {
			return nil, nil
		}
		return symCall(c, descriptor.OpAXPY, c.name,
			expr(c.args[0]), expr(c.args[1]),
			buf(x), buf(y),
			expr(c.args[3]), expr(c.args[5]))
	case "cblas_sdot":
		// r = cblas_sdot(n, x, incx, y, incy)
		if len(c.args) != 5 {
			return nil, fmt.Errorf("line %d: cblas_sdot expects 5 args, got %d", c.line, len(c.args))
		}
		x, okx := parseBufRef(c.args[1])
		y, oky := parseBufRef(c.args[3])
		if !okx || !oky {
			return nil, nil
		}
		out := BufRef{Name: "__ret"}
		if c.target != "" {
			if o, ok := parseBufRef(c.target); ok {
				out = o
			}
		}
		return symCall(c, descriptor.OpDOT, c.name,
			expr(c.args[0]), expr("0"), // complex=0
			buf(x), buf(y), buf(out),
			expr(c.args[2]), expr(c.args[4]))
	case "cblas_cdotc_sub":
		// cblas_cdotc_sub(n, x, incx, y, incy, &out)
		if len(c.args) != 6 {
			return nil, fmt.Errorf("line %d: cblas_cdotc_sub expects 6 args, got %d", c.line, len(c.args))
		}
		x, okx := parseBufRef(c.args[1])
		y, oky := parseBufRef(c.args[3])
		out, oko := parseBufRef(c.args[5])
		if !okx || !oky || !oko {
			return nil, nil
		}
		return symCall(c, descriptor.OpDOT, c.name,
			expr(c.args[0]), expr("1"), // complex=1
			buf(x), buf(y), buf(out),
			expr(c.args[2]), expr(c.args[4]))
	case "cblas_sgemv":
		// cblas_sgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)
		if len(c.args) != 12 {
			return nil, fmt.Errorf("line %d: cblas_sgemv expects 12 args, got %d", c.line, len(c.args))
		}
		if !strings.Contains(c.args[0], "RowMajor") || !strings.Contains(c.args[1], "NoTrans") {
			return nil, nil // only the row-major no-transpose accelerator exists
		}
		a, oka := parseBufRef(c.args[5])
		x, okx := parseBufRef(c.args[7])
		y, oky := parseBufRef(c.args[10])
		if !oka || !okx || !oky {
			return nil, nil
		}
		if strings.TrimSpace(c.args[8]) != "1" || strings.TrimSpace(c.args[11]) != "1" {
			return nil, nil // accelerator handles unit strides
		}
		return symCall(c, descriptor.OpGEMV, c.name,
			expr(c.args[2]), expr(c.args[3]),
			expr(c.args[4]), expr(c.args[9]),
			buf(a), expr(c.args[6]),
			buf(x), buf(y))
	case "mkl_scsrgemv", "mkl_cspblas_scsrgemv":
		// mkl_cspblas_scsrgemv(&transa, &m, a, ia, ja, x, y)
		if len(c.args) != 7 {
			return nil, fmt.Errorf("line %d: %s expects 7 args, got %d", c.line, c.name, len(c.args))
		}
		vals, okv := parseBufRef(c.args[2])
		ia, oki := parseBufRef(c.args[3])
		ja, okj := parseBufRef(c.args[4])
		x, okx := parseBufRef(c.args[5])
		y, oky := parseBufRef(c.args[6])
		if !okv || !oki || !okj || !okx || !oky {
			return nil, nil
		}
		m := stripDeref(c.args[1])
		return symCall(c, descriptor.OpSPMV, c.name,
			expr(m),
			expr("__cols_"+x.Name),
			expr("__nnz_"+vals.Name),
			buf(ia), buf(ja), buf(vals),
			buf(x), buf(y))
	case "dfsInterpolate1D":
		// dfsInterpolate1D(task, nin, src, nout, dst) — simplified data
		// fitting call shape.
		if len(c.args) != 5 {
			return nil, fmt.Errorf("line %d: dfsInterpolate1D expects 5 args, got %d", c.line, len(c.args))
		}
		src, oks := parseBufRef(c.args[2])
		dst, okd := parseBufRef(c.args[4])
		if !oks || !okd {
			return nil, nil
		}
		return symCall(c, descriptor.OpRESMP, c.name,
			expr(c.args[1]), expr(c.args[3]), expr("0"), // linear
			buf(src), buf(dst))
	case "mkl_simatcopy":
		// mkl_simatcopy(ordering, trans, rows, cols, alpha, AB, lda, ldb)
		if len(c.args) != 8 {
			return nil, fmt.Errorf("line %d: mkl_simatcopy expects 8 args, got %d", c.line, len(c.args))
		}
		ab, ok := parseBufRef(c.args[5])
		if !ok {
			return nil, nil
		}
		return symCall(c, descriptor.OpRESHP, c.name,
			expr(c.args[2]), expr(c.args[3]), expr("0"), // f32
			buf(ab), buf(ab))
	case "fftwf_execute":
		// fftwf_execute(plan) with the plan recorded earlier.
		if len(c.args) != 1 {
			return nil, fmt.Errorf("line %d: fftwf_execute expects 1 arg", c.line)
		}
		plan, ok := r.plans[strings.TrimSpace(c.args[0])]
		if !ok {
			return nil, fmt.Errorf("line %d: fftwf_execute of unknown plan %q", c.line, c.args[0])
		}
		return r.planCall(c, plan)
	default:
		return nil, nil
	}
}

// planCall lowers an fftwf plan execution: rank 0 guru plans are data
// copies (RESHP), rank >= 1 are batched FFTs (paper §3.1, challenge 3).
func (r *recognizer) planCall(c *call, plan *fftwPlan) (*SymCall, error) {
	if plan.rank == 0 {
		// Data reshape: howmany dims give the copy geometry; the first two
		// levels are the transposed plane.
		hd := r.dims[plan.howmanyDims]
		if len(hd) < 2 {
			return nil, fmt.Errorf("line %d: reshape plan needs >= 2 howmany dims", c.line)
		}
		rows, cols := hd[0][0], hd[1][0]
		extra := "1"
		if len(hd) > 2 {
			extra = hd[2][0]
		}
		return symCall(c, descriptor.OpRESHP, "fftwf_execute(guru-copy)",
			expr(rows), expr("("+cols+")*("+extra+")"), expr("1"), // complex
			buf(plan.in), buf(plan.out))
	}
	dims := r.dims[plan.dims]
	if len(dims) < 1 {
		return nil, fmt.Errorf("line %d: fft plan has no dims initializer", c.line)
	}
	n := dims[0][0]
	howMany := "1"
	for _, hd := range r.dims[plan.howmanyDims] {
		howMany = "(" + howMany + ")*(" + hd[0] + ")"
	}
	return symCall(c, descriptor.OpFFT, "fftwf_execute(fft)",
		expr(n), expr("0"), expr(howMany),
		buf(plan.in), buf(plan.out))
}
