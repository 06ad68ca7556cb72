// Package tdl implements the Task Description Language of MEALib
// (paper §3.4): the high-level description of the computation a descriptor
// performs. TDL has three block forms —
//
//	COMP <ACCEL> PARAMS "<param-ref>"   one accelerator invocation
//	PASS { COMP... }                     a chained datapath with its own
//	                                     input and output buffers
//	LOOP <N> { PASS... }                 repeat the enclosed passes N times
//
// A program is a sequence of PASS and LOOP blocks. '#' starts a comment.
// The source-to-source compiler (internal/ccompiler) generates TDL strings
// and parameter tables; this package parses them and compiles them to the
// binary accelerator descriptor (internal/descriptor).
package tdl

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"mealib/internal/descriptor"
)

// Program is a parsed TDL program.
type Program struct {
	Blocks []Block
}

// Block is a top-level TDL block.
type Block interface{ isBlock() }

// Pass is a chained datapath of accelerator invocations.
type Pass struct {
	Comps []Comp
	// Line is the 1-based source line of the PASS keyword (0 when the
	// program was built programmatically rather than parsed).
	Line int
}

func (Pass) isBlock() {}

// Loop repeats its passes over a hardware loop nest; Counts are the
// per-level iteration counts, outermost first (a single count is a plain
// loop).
type Loop struct {
	Counts []int
	Passes []Pass
	// Line is the 1-based source line of the LOOP keyword (0 when built
	// programmatically).
	Line int
}

// count returns the flattened iteration count of the nest.
func (l Loop) count() int {
	total := 1
	for _, c := range l.Counts {
		total *= c
	}
	return total
}

func (Loop) isBlock() {}

// Comp is one accelerator invocation: the accelerator and a reference to
// its parameter block (the paper stores parameters in files like
// "fft.para"; the reference is resolved at compile time).
type Comp struct {
	Op       descriptor.OpCode
	ParamRef string
	// Line is the 1-based source line of the COMP keyword (0 when built
	// programmatically).
	Line int
}

// token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokLBrace
	tokRBrace
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return fmt.Sprintf("'%s'", t.text)
	}
}

// lex tokenises src.
func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", line})
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				j++
			}
			if j >= len(src) || src[j] != '"' {
				return nil, fmt.Errorf("tdl: line %d: unterminated string", line)
			}
			toks = append(toks, token{tokString, src[i+1 : j], line})
			i = j + 1
		case c >= '0' && c <= '9':
			j := i
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			toks = append(toks, token{tokInt, src[i:j], line})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_' || src[j] == '.') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("tdl: line %d: unexpected character %q", line, c)
		}
	}
	toks = append(toks, token{tokEOF, "", line})
	return toks, nil
}

// parser consumes the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.next()
	if t.kind != kind {
		return t, fmt.Errorf("tdl: line %d: expected %s, found %s", t.line, what, t)
	}
	return t, nil
}

// Parse parses a TDL program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	for p.peek().kind != tokEOF {
		t := p.peek()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("tdl: line %d: expected PASS or LOOP, found %s", t.line, t)
		}
		switch t.text {
		case "PASS":
			pass, err := p.parsePass()
			if err != nil {
				return nil, err
			}
			prog.Blocks = append(prog.Blocks, pass)
		case "LOOP":
			loop, err := p.parseLoop()
			if err != nil {
				return nil, err
			}
			prog.Blocks = append(prog.Blocks, loop)
		default:
			return nil, fmt.Errorf("tdl: line %d: expected PASS or LOOP, found %s", t.line, t)
		}
	}
	if len(prog.Blocks) == 0 {
		return nil, fmt.Errorf("tdl: empty program")
	}
	return prog, nil
}

func (p *parser) parsePass() (Pass, error) {
	var pass Pass
	kw, err := p.expect(tokIdent, "PASS")
	if err != nil {
		return pass, err
	}
	pass.Line = kw.line
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return pass, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "COMP" {
		comp, err := p.parseComp()
		if err != nil {
			return pass, err
		}
		pass.Comps = append(pass.Comps, comp)
	}
	if len(pass.Comps) == 0 {
		return pass, fmt.Errorf("tdl: line %d: PASS without COMP blocks", p.peek().line)
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return pass, err
	}
	return pass, nil
}

func (p *parser) parseComp() (Comp, error) {
	var comp Comp
	ckw, err := p.expect(tokIdent, "COMP")
	if err != nil {
		return comp, err
	}
	comp.Line = ckw.line
	opTok, err := p.expect(tokIdent, "accelerator name")
	if err != nil {
		return comp, err
	}
	op, ok := descriptor.OpNamed(opTok.text)
	if !ok {
		return comp, fmt.Errorf("tdl: line %d: unknown accelerator %q", opTok.line, opTok.text)
	}
	comp.Op = op
	kw, err := p.expect(tokIdent, "PARAMS")
	if err != nil {
		return comp, err
	}
	if kw.text != "PARAMS" {
		return comp, fmt.Errorf("tdl: line %d: expected PARAMS, found %s", kw.line, kw)
	}
	ref, err := p.expect(tokString, "parameter reference string")
	if err != nil {
		return comp, err
	}
	if ref.text == "" {
		return comp, fmt.Errorf("tdl: line %d: %v: empty parameter reference", ref.line, op)
	}
	comp.ParamRef = ref.text
	return comp, nil
}

func (p *parser) parseLoop() (Loop, error) {
	var loop Loop
	lkw, err := p.expect(tokIdent, "LOOP")
	if err != nil {
		return loop, err
	}
	loop.Line = lkw.line
	countTok, err := p.expect(tokInt, "loop count")
	if err != nil {
		return loop, err
	}
	for tok := countTok; ; tok = p.next() {
		c, err := strconv.Atoi(tok.text)
		switch {
		case err != nil || c <= 0:
			return loop, fmt.Errorf("tdl: line %d: invalid loop count %q", tok.line, tok.text)
		case c > math.MaxUint32:
			return loop, fmt.Errorf("tdl: line %d: loop count %d exceeds the descriptor's 32-bit count field", tok.line, c)
		}
		loop.Counts = append(loop.Counts, c)
		if p.peek().kind != tokInt {
			break
		}
	}
	if len(loop.Counts) > descriptor.MaxLoopLevels {
		return loop, fmt.Errorf("tdl: line %d: loop nest deeper than %d levels", countTok.line, descriptor.MaxLoopLevels)
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return loop, err
	}
	for p.peek().kind == tokIdent && p.peek().text == "PASS" {
		pass, err := p.parsePass()
		if err != nil {
			return loop, err
		}
		loop.Passes = append(loop.Passes, pass)
	}
	if len(loop.Passes) == 0 {
		return loop, fmt.Errorf("tdl: line %d: LOOP without PASS blocks", p.peek().line)
	}
	if _, err := p.expect(tokRBrace, "'}'"); err != nil {
		return loop, err
	}
	return loop, nil
}

// Format renders the program back to canonical TDL text.
func Format(prog *Program) string {
	var b strings.Builder
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case Pass:
			formatPass(&b, v, "")
		case Loop:
			b.WriteString("LOOP")
			for _, c := range v.Counts {
				fmt.Fprintf(&b, " %d", c)
			}
			b.WriteString(" {\n")
			for _, pass := range v.Passes {
				formatPass(&b, pass, "  ")
			}
			b.WriteString("}\n")
		}
	}
	return b.String()
}

func formatPass(b *strings.Builder, pass Pass, indent string) {
	fmt.Fprintf(b, "%sPASS {\n", indent)
	for _, c := range pass.Comps {
		fmt.Fprintf(b, "%s  COMP %s PARAMS %q\n", indent, c.Op, c.ParamRef)
	}
	fmt.Fprintf(b, "%s}\n", indent)
}
