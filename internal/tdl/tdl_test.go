package tdl

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mealib/internal/descriptor"
)

const stapTDL = `
# Data copy + FFT chained into one pass (Listing 1 translation).
PASS {
  COMP RESHP PARAMS "reshape.para"
  COMP FFT PARAMS "fft.para"
}
LOOP 128 {
  PASS {
    COMP DOT PARAMS "dot.para"
  }
}
`

func TestParseBasic(t *testing.T) {
	prog, err := Parse(stapTDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) != 2 {
		t.Fatalf("blocks = %d, want 2", len(prog.Blocks))
	}
	pass, ok := prog.Blocks[0].(Pass)
	if !ok {
		t.Fatalf("block 0 is %T, want Pass", prog.Blocks[0])
	}
	if len(pass.Comps) != 2 || pass.Comps[0].Op != descriptor.OpRESHP || pass.Comps[1].Op != descriptor.OpFFT {
		t.Errorf("pass comps = %+v", pass.Comps)
	}
	if pass.Comps[1].ParamRef != "fft.para" {
		t.Errorf("param ref = %q", pass.Comps[1].ParamRef)
	}
	loop, ok := prog.Blocks[1].(Loop)
	if !ok {
		t.Fatalf("block 1 is %T, want Loop", prog.Blocks[1])
	}
	if loop.count() != 128 || len(loop.Passes) != 1 {
		t.Errorf("loop = %+v", loop)
	}
}

func TestParseAllOpcodes(t *testing.T) {
	for name, op := range map[string]descriptor.OpCode{
		"AXPY": descriptor.OpAXPY, "DOT": descriptor.OpDOT, "GEMV": descriptor.OpGEMV,
		"SPMV": descriptor.OpSPMV, "RESMP": descriptor.OpRESMP, "FFT": descriptor.OpFFT,
		"RESHP": descriptor.OpRESHP,
	} {
		prog, err := Parse(`PASS { COMP ` + name + ` PARAMS "p" }`)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := prog.Blocks[0].(Pass).Comps[0].Op; got != op {
			t.Errorf("%s parsed as %v", name, got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty":              ``,
		"comment only":       `# nothing here`,
		"bad top level":      `COMP FFT PARAMS "p"`,
		"unknown accel":      `PASS { COMP WHAT PARAMS "p" }`,
		"missing params kw":  `PASS { COMP FFT "p" }`,
		"missing ref":        `PASS { COMP FFT PARAMS }`,
		"unterminated str":   `PASS { COMP FFT PARAMS "p }`,
		"empty pass":         `PASS { }`,
		"empty loop":         `LOOP 4 { }`,
		"zero loop":          `LOOP 0 { PASS { COMP FFT PARAMS "p" } }`,
		"missing loop count": `LOOP { PASS { COMP FFT PARAMS "p" } }`,
		"missing brace":      `PASS COMP FFT PARAMS "p" }`,
		"trailing garbage":   `PASS { COMP FFT PARAMS "p" } @`,
		"loop in loop":       `LOOP 2 { LOOP 2 { PASS { COMP FFT PARAMS "p" } } }`,
		"count past 2^32-1":  `LOOP 4294967297 { PASS { COMP FFT PARAMS "p" } }`,
		"inner count 2^32":   `LOOP 2 4294967296 { PASS { COMP FFT PARAMS "p" } }`,
		"empty ref":          `PASS { COMP FFT PARAMS "" }`,
	}
	for name, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%s: Parse must fail", name)
		}
	}
}

// TestCompileChecksLoopCounts: a nest built in code reaches the descriptor's
// 32-bit count fields through one checked conversion, never truncated.
func TestCompileChecksLoopCounts(t *testing.T) {
	pass := []Pass{{Comps: []Comp{{Op: descriptor.OpFFT, ParamRef: "p", Line: 2}}, Line: 2}}
	resolve := MapResolver(map[string]descriptor.Params{"p": {1}})
	for _, counts := range [][]int{{-1}, {1<<32 + 3}, {1 << 32}, {0}, {2, 1, 1, 1, 1}} {
		prog := &Program{Blocks: []Block{Loop{Counts: counts, Passes: pass, Line: 2}}}
		if d, err := Compile(prog, resolve); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("LOOP %v compiled (%v, %v); want an error naming line 2", counts, d, err)
		}
	}
	prog, err := Parse(`LOOP 4294967295 { PASS { COMP FFT PARAMS "p" } }`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(prog, resolve)
	if err != nil || d.Instrs[0].Counts.Total() != 1<<32-1 {
		t.Errorf("LOOP 2^32-1: %v, %v", d, err)
	}
}

func TestParseReportsLineNumbers(t *testing.T) {
	_, err := Parse("PASS {\n COMP FFT PARAMS \"p\"\n COMP NOPE PARAMS \"p\"\n}")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should name line 3: %v", err)
	}
}

func TestMultiLevelLoop(t *testing.T) {
	prog, err := Parse(`LOOP 4 8 16 { PASS { COMP DOT PARAMS "p" } }`)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Blocks[0].(Loop)
	if loop.count() != 4*8*16 {
		t.Errorf("nest total = %d", loop.count())
	}
	d, err := Compile(prog, MapResolver(map[string]descriptor.Params{"p": {1}}))
	if err != nil {
		t.Fatal(err)
	}
	if d.Instrs[0].Counts.Total() != 4*8*16 {
		t.Errorf("descriptor total = %d", d.Instrs[0].Counts.Total())
	}
	// Format must preserve the levels.
	prog2, err := Parse(Format(prog))
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Blocks[0].(Loop).count() != 4*8*16 {
		t.Error("format lost loop levels")
	}
}

func TestLoopTooDeep(t *testing.T) {
	if _, err := Parse(`LOOP 1 2 3 4 5 { PASS { COMP DOT PARAMS "p" } }`); err == nil {
		t.Error("5-level nest must fail")
	}
}

func TestFormatRoundTrip(t *testing.T) {
	prog, err := Parse(stapTDL)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("formatted output does not reparse: %v\n%s", err, text)
	}
	if Format(prog2) != text {
		t.Error("Format is not a fixed point")
	}
}

func testResolver() ParamResolver {
	return MapResolver(map[string]descriptor.Params{
		"reshape.para": {64, 64, 0x1000, 0x2000},
		"fft.para":     {64, 0, 1, 0x2000},
		"dot.para":     {32, 1, 0x3000, 0x4000, 0x5000},
	})
}

func TestCompile(t *testing.T) {
	prog, err := Parse(stapTDL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compile(prog, testResolver())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// RESHP, FFT, ENDPASS, LOOP, DOT, ENDPASS, ENDLOOP = 7 instructions.
	if len(d.Instrs) != 7 {
		t.Fatalf("instructions = %d, want 7", len(d.Instrs))
	}
	if d.Instrs[3].Kind != descriptor.KindLoop || d.Instrs[3].Counts.Total() != 128 {
		t.Errorf("loop instruction = %+v", d.Instrs[3])
	}
	if d.Comps() != 3 {
		t.Errorf("comps = %d, want 3", d.Comps())
	}
	p, err := d.ParamsOf(2)
	if err != nil || p[0] != 32 {
		t.Errorf("dot params = %v, %v", p, err)
	}
}

func TestCompileUnresolvedRef(t *testing.T) {
	prog, err := Parse(stapTDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog, MapResolver(nil)); err == nil {
		t.Error("unresolved reference must fail")
	}
}

func TestCompileNilResolver(t *testing.T) {
	prog, _ := Parse(stapTDL)
	if _, err := Compile(prog, nil); err == nil {
		t.Error("nil resolver must fail")
	}
	if _, err := Compile(nil, testResolver()); err == nil {
		t.Error("nil program must fail")
	}
}

// Property: Format is a bijection on the parse tree — random programs
// survive a Format/Parse/Format round trip, and compiling either side
// yields the same descriptor structure.
func TestPropertyFormatParseRoundTrip(t *testing.T) {
	ops := []string{"AXPY", "DOT", "GEMV", "SPMV", "RESMP", "FFT", "RESHP"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b strings.Builder
		params := map[string]descriptor.Params{}
		blocks := rng.Intn(4) + 1
		ref := 0
		mkPass := func(indent string) {
			fmt.Fprintf(&b, "%sPASS {\n", indent)
			comps := rng.Intn(3) + 1
			for c := 0; c < comps; c++ {
				name := fmt.Sprintf("p%d.para", ref)
				ref++
				params[name] = descriptor.Params{uint64(rng.Intn(100))}
				fmt.Fprintf(&b, "%s  COMP %s PARAMS %q\n", indent, ops[rng.Intn(len(ops))], name)
			}
			fmt.Fprintf(&b, "%s}\n", indent)
		}
		for i := 0; i < blocks; i++ {
			if rng.Intn(2) == 0 {
				levels := rng.Intn(3) + 1
				b.WriteString("LOOP")
				for l := 0; l < levels; l++ {
					fmt.Fprintf(&b, " %d", rng.Intn(16)+1)
				}
				b.WriteString(" {\n")
				passes := rng.Intn(2) + 1
				for p := 0; p < passes; p++ {
					mkPass("  ")
				}
				b.WriteString("}\n")
			} else {
				mkPass("")
			}
		}
		src := b.String()
		prog, err := Parse(src)
		if err != nil {
			return false
		}
		text := Format(prog)
		prog2, err := Parse(text)
		if err != nil {
			return false
		}
		if Format(prog2) != text {
			return false
		}
		d1, err1 := Compile(prog, MapResolver(params))
		d2, err2 := Compile(prog2, MapResolver(params))
		if err1 != nil || err2 != nil {
			return false
		}
		if len(d1.Instrs) != len(d2.Instrs) || d1.Comps() != d2.Comps() {
			return false
		}
		for i := range d1.Instrs {
			a, c := d1.Instrs[i], d2.Instrs[i]
			if a.Kind != c.Kind || a.Op != c.Op || a.Counts != c.Counts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
