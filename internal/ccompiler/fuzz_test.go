package ccompiler

import (
	"os"
	"testing"

	"mealib/internal/tdl"
)

// FuzzCompile hardens the C front end: arbitrary input must never panic;
// anything that compiles must emit source that still lexes and parses,
// and every TDL program the compiler generates must parse and pass the
// structural half of the static verifier — the compiler must never hand
// the runtime a malformed program.
func FuzzCompile(f *testing.F) {
	stap, err := os.ReadFile("testdata/stap.c")
	if err != nil {
		f.Fatal(err)
	}
	sarSrc, err := os.ReadFile("testdata/sar.c")
	if err != nil {
		f.Fatal(err)
	}
	seeds := []string{
		string(stap),
		string(sarSrc),
		`void f(void) { float *x; x = malloc(64); free(x); }`,
		`int main() { for (i = 0; i < 10; ++i) work(i); }`,
		`#pragma omp parallel for`,
		`x = "unterminated`,
		`/* unterminated`,
		`void f() { int a[2] = { {1,2}, {3,4} }; }`,
		"{}{}{};;;",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	syms := map[string]int64{
		"N_CHAN": 2, "N_PULSES": 2, "N_RANGE": 4, "N_DOP": 2,
		"N_BLOCKS": 2, "N_STEERING": 2, "TDOF": 1,
		"TDOF_NCHAN": 2, "TBS": 2, "CELL_DIM": 4,
		"N_ROWS": 2, "RAW_WIDTH": 4, "WIDTH": 2, "task": 0,
		"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0, "i": 0, "n": 4,
	}
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Compile(src, Options{Symbols: syms})
		if err != nil {
			return
		}
		toks, err := Lex(res.Source)
		if err != nil {
			t.Fatalf("transformed source does not lex: %v", err)
		}
		if _, err := ParseC(toks); err != nil {
			t.Fatalf("transformed source does not parse: %v", err)
		}
		for _, plan := range res.Plans {
			if _, err := tdl.Parse(plan.TDL); err != nil {
				t.Fatalf("generated TDL for %s does not parse: %v\n%s", plan.Name, err, plan.TDL)
			}
		}
	})
}

// FuzzEvalInt hardens the expression evaluator.
func FuzzEvalInt(f *testing.F) {
	for _, s := range []string{"1+2*3", "(N)", "1/0", "-(-4)", "1 <<", "a%b", "((("} {
		f.Add(s)
	}
	syms := map[string]int64{"N": 7, "a": 10, "b": 3}
	f.Fuzz(func(t *testing.T, expr string) {
		_, _ = EvalInt(expr, syms) // must not panic
	})
}
