package ccompiler

import (
	"os"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
)

// stapSymbols are the -D constants for testdata/stap.c (small sizes so the
// end-to-end test executes quickly).
func stapSymbols() map[string]int64 {
	return map[string]int64{
		"N_CHAN": 4, "N_PULSES": 8, "N_RANGE": 16, "N_DOP": 8,
		"N_BLOCKS": 2, "N_STEERING": 4, "TDOF": 2,
		"TDOF_NCHAN": 8, "TBS": 16, "CELL_DIM": 16 * 8,
		"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0,
	}
}

func compileSTAP(t *testing.T) *Result {
	t.Helper()
	src, err := os.ReadFile("testdata/stap.c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(string(src), Options{Symbols: stapSymbols()})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`int x = 42; /* c */ float y; // line
#pragma omp parallel for
s = "str;{}"; c = 'a';`)
	if err != nil {
		t.Fatal(err)
	}
	var idents, pragmas, strs int
	for _, tk := range toks {
		switch tk.Kind {
		case TokIdent:
			idents++
		case TokPragma:
			pragmas++
		case TokString:
			strs++
		}
	}
	if pragmas != 1 {
		t.Errorf("pragmas = %d, want 1", pragmas)
	}
	if strs != 1 {
		t.Errorf("strings = %d, want 1", strs)
	}
	if idents < 5 {
		t.Errorf("idents = %d", idents)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex(`/* unterminated`); err == nil {
		t.Error("unterminated comment must fail")
	}
	if _, err := Lex(`"unterminated`); err == nil {
		t.Error("unterminated string must fail")
	}
	if _, err := Lex(`'u`); err == nil {
		t.Error("unterminated char must fail")
	}
}

func TestParseCAndEmitRoundTrip(t *testing.T) {
	src := `
int main(void) {
  int i;
  for (i = 0; i < 10; ++i) {
    work(i);
  }
  if (x > 0) {
    y = x;
  }
  int arr[2] = { {1,2}, {3,4} };
  return 0;
}
`
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ParseC(toks)
	if err != nil {
		t.Fatal(err)
	}
	out := Emit(tree)
	// The emitted source must reparse to the same structure.
	toks2, err := Lex(out)
	if err != nil {
		t.Fatalf("emitted source does not lex: %v\n%s", err, out)
	}
	if _, err := ParseC(toks2); err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, "for (i = 0; i < 10; ++ i)") && !strings.Contains(out, "for (i = 0; i < 10; ++i)") {
		t.Errorf("for loop lost:\n%s", out)
	}
}

func TestParseCErrors(t *testing.T) {
	bad := []string{
		`int main() { `,    // missing }
		`}`,                // stray }
		`for (i = 0) x();`, // bad for header
		`x = 1`,            // missing ;
	}
	for _, src := range bad {
		toks, err := Lex(src)
		if err != nil {
			continue
		}
		if _, err := ParseC(toks); err == nil {
			t.Errorf("ParseC(%q) must fail", src)
		}
	}
}

func TestEvalInt(t *testing.T) {
	syms := map[string]int64{"N": 10, "M": 3}
	cases := map[string]int64{
		"42":          42,
		"N":           10,
		"N * M":       30,
		"N + M * 2":   16,
		"(N + M) * 2": 26,
		"N - M":       7,
		"N / M":       3,
		"N % M":       1,
		"-N":          -10,
		"1 << 4":      16,
		"N * (M + 1)": 40,
	}
	for expr, want := range cases {
		got, err := EvalInt(expr, syms)
		if err != nil || got != want {
			t.Errorf("EvalInt(%q) = %d, %v; want %d", expr, got, err, want)
		}
	}
	if _, err := EvalInt("Q", syms); err == nil {
		t.Error("unknown symbol must fail")
	}
	if _, err := EvalInt("1/0", syms); err == nil {
		t.Error("division by zero must fail")
	}
	if _, err := EvalInt("1 +", syms); err == nil {
		t.Error("truncated expression must fail")
	}
}

func TestEvalF32(t *testing.T) {
	if v, err := EvalF32("1.5f", nil, nil); err != nil || v != 1.5 {
		t.Errorf("1.5f = %v, %v", v, err)
	}
	if v, err := EvalF32("alpha", nil, map[string]float32{"alpha": 2.5}); err != nil || v != 2.5 {
		t.Errorf("alpha = %v, %v", v, err)
	}
	if v, err := EvalF32("3", map[string]int64{}, nil); err != nil || v != 3 {
		t.Errorf("3 = %v, %v", v, err)
	}
	if _, err := EvalF32("wat", nil, nil); err == nil {
		t.Error("unresolvable float must fail")
	}
}

func TestParseBufRef(t *testing.T) {
	cases := []struct {
		in   string
		name string
		idx  int
	}{
		{"x", "x", 0},
		{"&x", "x", 0},
		{"&a[i][0]", "a", 2},
		{"a[i + 1]", "a", 1},
		{"(float *) buf", "buf", 0},
	}
	for _, c := range cases {
		ref, ok := parseBufRef(c.in)
		if !ok || ref.Name != c.name || len(ref.Index) != c.idx {
			t.Errorf("parseBufRef(%q) = %+v, %v", c.in, ref, ok)
		}
	}
	if _, ok := parseBufRef("a + b"); ok {
		t.Error("pointer arithmetic must not parse as a buffer ref")
	}
}

func TestSTAPCompileStructure(t *testing.T) {
	res := compileSTAP(t)
	// Paper §5.5: the STAP library calls compact into 3 descriptors.
	if res.Stats.Descriptors != 3 {
		t.Fatalf("descriptors = %d, want 3\n%s", res.Stats.Descriptors, res.Describe())
	}
	if res.Stats.ChainedPasses != 1 {
		t.Errorf("chained passes = %d, want 1 (reshape+fft)", res.Stats.ChainedPasses)
	}
	if res.Stats.CompactedLoops != 2 {
		t.Errorf("compacted loops = %d, want 2 (cdotc nest, saxpy nest)", res.Stats.CompactedLoops)
	}
	if res.Stats.MallocRewrites != 3 || res.Stats.FreeRewrites != 3 {
		t.Errorf("malloc/free rewrites = %d/%d, want 3/3", res.Stats.MallocRewrites, res.Stats.FreeRewrites)
	}
	// Dynamic call coverage: 2 fftw executes + 8*2*4*16 cdotc + 8*2 saxpy.
	wantCovered := int64(2 + 8*2*4*16 + 8*2)
	if res.Stats.CoveredCalls != wantCovered {
		t.Errorf("covered calls = %d, want %d", res.Stats.CoveredCalls, wantCovered)
	}

	// Plan 0: chained RESHP+FFT.
	p0 := res.Plans[0]
	if len(p0.Calls) != 2 || p0.Calls[0].Sym.Op != descriptor.OpRESHP || p0.Calls[1].Sym.Op != descriptor.OpFFT {
		t.Fatalf("plan 0 = %s", p0.TDL)
	}
	if !strings.Contains(p0.TDL, "PASS") || strings.Contains(p0.TDL, "LOOP") {
		t.Errorf("plan 0 TDL = %s", p0.TDL)
	}
	// Plan 1: the 4-level cdotc LOOP.
	p1 := res.Plans[1]
	if p1.Calls[0].Sym.Op != descriptor.OpDOT || len(p1.Loop) != 4 {
		t.Fatalf("plan 1 = %s (loop %v)", p1.TDL, p1.Loop)
	}
	if p1.CoveredCalls != 8*2*4*16 {
		t.Errorf("plan 1 covers %d calls", p1.CoveredCalls)
	}
	// Plan 2: the 2-level saxpy LOOP.
	p2 := res.Plans[2]
	if p2.Calls[0].Sym.Op != descriptor.OpAXPY || len(p2.Loop) != 2 {
		t.Fatalf("plan 2 = %s (loop %v)", p2.TDL, p2.Loop)
	}

	// Transformed source shape.
	if !strings.Contains(res.Source, "mealib_mem_alloc") {
		t.Error("malloc not rewritten")
	}
	if !strings.Contains(res.Source, "mealib_mem_free") {
		t.Error("free not rewritten")
	}
	if !strings.Contains(res.Source, "mealib_acc_execute(__mealib_plan_1)") {
		t.Errorf("plan execution missing:\n%s", res.Source)
	}
	if strings.Contains(res.Source, "cblas_cdotc_sub(") {
		t.Error("compacted loop body still present in output")
	}
	if strings.Contains(res.Source, "for (sv") {
		t.Error("compacted nest levels still present in output")
	}
	if !strings.Contains(res.Source, "#pragma omp parallel for") {
		t.Error("unrelated pragmas must be preserved")
	}
}

func TestSTAPStrideDerivation(t *testing.T) {
	res := compileSTAP(t)
	p1 := res.Plans[1] // cdotc loop: levels (dop, block, sv, cell)
	pc := p1.Calls[0]
	const elem = 8 // complex64
	// adaptive_weights[N_DOP][N_BLOCKS][N_STEERING][TDOF_NCHAN]: field 2.
	wantW := [4]int64{elem * 2 * 4 * 8, elem * 4 * 8, elem * 8, 0}
	if got := pc.Strides[2]; got != wantW {
		t.Errorf("weights strides = %v, want %v", got, wantW)
	}
	// snapshots[N_DOP][N_BLOCKS][CELL_DIM]: field 3, cell advances 1 elem.
	wantS := [4]int64{elem * 2 * 128, elem * 128, 0, elem}
	if got := pc.Strides[3]; got != wantS {
		t.Errorf("snapshots strides = %v, want %v", got, wantS)
	}
	// prods[N_DOP][N_BLOCKS][N_STEERING][TBS]: field 4.
	wantP := [4]int64{elem * 2 * 4 * 16, elem * 4 * 16, elem * 16, elem}
	if got := pc.Strides[4]; got != wantP {
		t.Errorf("prods strides = %v, want %v", got, wantP)
	}
}

func TestCompileChainingRequiresAdjacency(t *testing.T) {
	src := `
void f(void) {
  float *a; float *b; float *c;
  a = malloc(64); b = malloc(64); c = malloc(64);
  dfsInterpolate1D(task, 16, a, 16, b);
  unrelated_call(a);
  dfsInterpolate1D(task, 16, b, 16, c);
}
`
	res, err := Compile(src, Options{Symbols: map[string]int64{"task": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChainedPasses != 0 {
		t.Error("calls separated by other statements must not chain")
	}
	if res.Stats.Descriptors != 2 {
		t.Errorf("descriptors = %d, want 2", res.Stats.Descriptors)
	}
}

func TestCompileChainsProducerConsumer(t *testing.T) {
	src := `
void f(void) {
  float *a; float *b; float *c;
  a = malloc(64); b = malloc(64); c = malloc(64);
  dfsInterpolate1D(task, 16, a, 32, b);
  dfsInterpolate1D(task, 32, b, 64, c);
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ChainedPasses != 1 || res.Stats.Descriptors != 1 {
		t.Errorf("chained=%d descriptors=%d, want 1/1", res.Stats.ChainedPasses, res.Stats.Descriptors)
	}
	if len(res.Plans[0].Calls) != 2 {
		t.Errorf("merged pass has %d comps", len(res.Plans[0].Calls))
	}
}

func TestNonCanonicalLoopNotCompacted(t *testing.T) {
	src := `
void f(void) {
  float *x; float *y;
  x = malloc(1024); y = malloc(1024);
  int i;
  for (i = 0; i < n; i += 2)
    cblas_saxpy(4, 1.0f, x, 1, y, 1);
}
`
	res, err := Compile(src, Options{Symbols: map[string]int64{"n": 8}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompactedLoops != 0 {
		t.Error("step-2 loop must not be compacted")
	}
	// The call inside the surviving loop is still accelerated per call.
	if res.Stats.Descriptors != 1 {
		t.Errorf("descriptors = %d", res.Stats.Descriptors)
	}
}

func TestUnsupportedCallsPassThrough(t *testing.T) {
	src := `
void f(void) {
  cblas_sgemv(CblasColMajor, CblasNoTrans, m, n, 1.0f, a, lda, x, 1, 0.0f, y, 1);
  printf("hi");
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Descriptors != 0 {
		t.Error("column-major gemv and printf must pass through")
	}
	if !strings.Contains(res.Source, "cblas_sgemv") {
		t.Error("unaccelerated call must remain in output")
	}
}

// The SAR pattern: a row loop whose body chains two accelerable calls must
// compact into one LOOP descriptor with a two-comp pass (paper §5.4:
// hardware chaining + hardware loop combined).
func TestSARChainedLoopCompaction(t *testing.T) {
	src, err := os.ReadFile("testdata/sar.c")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(string(src), Options{Symbols: map[string]int64{
		"N_ROWS": 64, "RAW_WIDTH": 80, "WIDTH": 64, "task": 0,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Descriptors != 1 {
		t.Fatalf("descriptors = %d, want 1\n%s", res.Stats.Descriptors, res.Describe())
	}
	if res.Stats.CompactedLoops != 1 || res.Stats.ChainedPasses != 1 {
		t.Errorf("compacted=%d chained=%d, want 1/1", res.Stats.CompactedLoops, res.Stats.ChainedPasses)
	}
	p := res.Plans[0]
	if len(p.Calls) != 2 {
		t.Fatalf("pass comps = %d, want 2 (RESMP chain)", len(p.Calls))
	}
	if p.CoveredCalls != 2*64 {
		t.Errorf("covered calls = %d, want 128", p.CoveredCalls)
	}
	if !strings.Contains(p.TDL, "LOOP 64 { PASS { COMP RESMP") {
		t.Errorf("TDL = %s", p.TDL)
	}
	// Per-row strides must advance each buffer by one row.
	if got := p.Calls[0].Strides[3]; got != [4]int64{0, 0, 0, 4 * 80} {
		t.Errorf("raw stride = %v", got)
	}
	if got := p.Calls[0].Strides[4]; got != [4]int64{0, 0, 0, 4 * 64} {
		t.Errorf("image stride = %v", got)
	}
	if strings.Contains(res.Source, "for (r") {
		t.Error("the row loop must be replaced")
	}
}

// A loop body whose statements do NOT form a producer/consumer chain must
// not be force-merged into one pass.
func TestLoopBodyWithoutChainNotCompacted(t *testing.T) {
	src := `
void f(void) {
  float a[8][16];
  float b[8][16];
  float c[16];
  float d[16];
  int i;
  for (i = 0; i < 8; ++i) {
    cblas_saxpy(16, 1.0f, &a[i][0], 1, c, 1);
    cblas_saxpy(16, 1.0f, &b[i][0], 1, d, 1);
  }
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The two saxpys write different outputs: no chain, loop kept, but the
	// calls inside still accelerate individually (two descriptors inside
	// the surviving source loop).
	if res.Stats.CompactedLoops != 0 {
		t.Errorf("compacted = %d, want 0", res.Stats.CompactedLoops)
	}
	if res.Stats.Descriptors != 2 {
		t.Errorf("descriptors = %d, want 2", res.Stats.Descriptors)
	}
	if !strings.Contains(res.Source, "for (i = 0") {
		t.Error("unchainable loop must survive in the source")
	}
}

// Batched GEMV loops compact with per-iteration matrix strides.
func TestGemvLoopCompaction(t *testing.T) {
	src := `
void batched_models(void) {
  float models[32][64][16];
  float x[16];
  float y[32][64];
  int b;
  for (b = 0; b < 32; ++b)
    cblas_sgemv(CblasRowMajor, CblasNoTrans, 64, 16, 1.0f,
                &models[b][0][0], 16, x, 1, 0.0f, &y[b][0], 1);
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompactedLoops != 1 || res.Stats.Descriptors != 1 {
		t.Fatalf("compacted=%d descriptors=%d\n%s",
			res.Stats.CompactedLoops, res.Stats.Descriptors, res.Describe())
	}
	pc := res.Plans[0].Calls[0]
	if pc.Sym.Op != descriptor.OpGEMV {
		t.Fatalf("op = %v", pc.Sym.Op)
	}
	// models advances a whole 64x16 plane per iteration; y a 64-row slice.
	if got := pc.Strides[4]; got != [4]int64{0, 0, 0, 4 * 64 * 16} {
		t.Errorf("matrix stride = %v", got)
	}
	if got := pc.Strides[7]; got != [4]int64{0, 0, 0, 4 * 64} {
		t.Errorf("y stride = %v", got)
	}
	if _, ok := pc.Strides[6]; ok {
		t.Error("x is loop invariant: no stride entry expected")
	}
}

// cblas_sdot in assignment form gets a synthesised result buffer; the
// in-place mkl_simatcopy maps to RESHP with the same buffer on both sides.
func TestSdotAssignmentAndImatcopy(t *testing.T) {
	src := `
void f(void) {
  float *x; float *y; float *a;
  x = malloc(256); y = malloc(256); a = malloc(1024);
  r = cblas_sdot(64, x, 1, y, 1);
  mkl_simatcopy('R', 'T', 16, 16, 1.0f, a, 16, 16);
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Descriptors != 2 {
		t.Fatalf("descriptors = %d\n%s", res.Stats.Descriptors, res.Describe())
	}
	dot := res.Plans[0].Calls[0]
	if dot.Sym.Op != descriptor.OpDOT {
		t.Fatalf("first plan op = %v", dot.Sym.Op)
	}
	if dot.Sym.Fields[4].Buf.Name != "r" {
		t.Errorf("dot result buffer = %q, want the assignment target", dot.Sym.Fields[4].Buf.Name)
	}
	reshp := res.Plans[1].Calls[0]
	if reshp.Sym.Op != descriptor.OpRESHP {
		t.Fatalf("second plan op = %v", reshp.Sym.Op)
	}
	if reshp.Sym.Fields[3].Buf.Name != "a" || reshp.Sym.Fields[4].Buf.Name != "a" {
		t.Error("imatcopy must reference the same buffer for src and dst")
	}
}

// Sparse BLAS: mkl_cspblas_scsrgemv maps to SPMV with derived nnz symbols.
func TestCsrgemvRecognition(t *testing.T) {
	src := `
void f(void) {
  float *a; float *x; float *y;
  int *ia; int *ja;
  a = malloc(4096); x = malloc(1024); y = malloc(1024);
  mkl_cspblas_scsrgemv("N", &m, a, ia, ja, x, y);
}
`
	res, err := Compile(src, Options{Symbols: map[string]int64{"m": 256}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Descriptors != 1 {
		t.Fatalf("descriptors = %d", res.Stats.Descriptors)
	}
	spmv := res.Plans[0].Calls[0]
	if spmv.Sym.Op != descriptor.OpSPMV {
		t.Fatalf("op = %v", spmv.Sym.Op)
	}
	// Bind with concrete buffers; the nnz symbol derives from the values
	// buffer's element count.
	b := &Binding{
		Buffers: map[string]BoundBuffer{
			"a": {PA: 0x1000, Elems: 1024}, "ia": {PA: 0x2000, Elems: 257},
			"ja": {PA: 0x3000, Elems: 1024}, "x": {PA: 0x4000, Elems: 256},
			"y": {PA: 0x5000, Elems: 256},
		},
		Ints: map[string]int64{"m": 256},
	}
	_, params, err := Bind(res.Plans[0], b)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range params {
		if p[2] != 1024 { // NNZ field of SpmvArgs
			t.Errorf("bound NNZ = %d, want 1024 (values buffer length)", p[2])
		}
	}
}

// Casts on malloc are the common legacy idiom; the rewrite must survive
// them.
func TestMallocWithCast(t *testing.T) {
	src := `
void f(void) {
  float complex *buf;
  buf = (float complex *) malloc(1024);
  free(buf);
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MallocRewrites != 1 || res.Stats.FreeRewrites != 1 {
		t.Fatalf("rewrites = %d/%d\n%s", res.Stats.MallocRewrites, res.Stats.FreeRewrites, res.Source)
	}
	if !strings.Contains(res.Source, "mealib_mem_alloc(1024)") {
		t.Errorf("transformed source:\n%s", res.Source)
	}
	if decl := res.Buffers["buf"]; decl == nil || decl.ElemSize != 8 {
		t.Errorf("buffer decl = %+v", res.Buffers["buf"])
	}
}

// Control flow the compiler does not accelerate must survive the round
// trip untouched.
func TestControlFlowPassThrough(t *testing.T) {
	src := `
int classify(int v) {
  int out = 0;
  if (v > 10) {
    out = 1;
  } else {
    out = 2;
  }
  while (v > 0) {
    v = v - 1;
  }
  switch (v) {
    case 0: out = 3; break;
  }
  do {
    out = out + 1;
  } while (out < 5);
  return out;
}
`
	res, err := Compile(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Descriptors != 0 {
		t.Errorf("descriptors = %d, want 0", res.Stats.Descriptors)
	}
	// The emitter uses tight call-style spacing ("if(...)"), which is valid C.
	for _, want := range []string{"if(v > 10)", "while(v > 0)", "switch(v)", "return out"} {
		if !strings.Contains(res.Source, want) {
			t.Errorf("lost %q in:\n%s", want, res.Source)
		}
	}
	// The output must remain parseable C (idempotent second pass).
	res2, err := Compile(res.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Descriptors != 0 {
		t.Error("second pass must also find nothing to accelerate")
	}
}

// At the paper's own problem sizes the compiler covers ~17M dynamic library
// calls with 3 descriptors (§5.5) — without executing anything.
func TestPaperScaleCompaction(t *testing.T) {
	src, err := os.ReadFile("testdata/stap.c")
	if err != nil {
		t.Fatal(err)
	}
	syms := map[string]int64{
		// A PERFECT-large-class configuration: 256 dopplers, 16M cdotc calls.
		"N_CHAN": 8, "N_PULSES": 256, "N_RANGE": 4096, "N_DOP": 256,
		"N_BLOCKS": 16, "N_STEERING": 64, "TDOF": 4,
		"TDOF_NCHAN": 32, "TBS": 64, "CELL_DIM": 64 * 32,
		"NULL": 0, "FFTW_FORWARD": 0, "FFTW_WISDOM_ONLY": 0,
	}
	res, err := Compile(string(src), Options{Symbols: syms})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Descriptors != 3 {
		t.Fatalf("descriptors = %d, want 3", res.Stats.Descriptors)
	}
	dots := int64(256) * 16 * 64 * 64 // 16.8M
	want := int64(2) + dots + 256*16
	if res.Stats.CoveredCalls != want {
		t.Errorf("covered calls = %d, want %d (~17M)", res.Stats.CoveredCalls, want)
	}
	if res.Stats.CoveredCalls < 16_000_000 {
		t.Errorf("must cover >16M calls, got %d", res.Stats.CoveredCalls)
	}
}

// Binding must evaluate constant index offsets exactly: a wrapped base
// address handed to the verifier defeats its interval proofs.
func TestBindRejectsOverflowingOffset(t *testing.T) {
	sym, err := symCall(&call{name: "cblas_saxpy"}, descriptor.OpAXPY, "cblas_saxpy",
		expr("n"), expr("1.0"), buf(BufRef{Name: "x"}), buf(BufRef{Name: "y"}), expr("1"), expr("1"))
	if err != nil {
		t.Fatal(err)
	}
	pc := &PlannedCall{
		Sym:      sym,
		ParamRef: "p0",
		Offsets: map[int][]offsetTerm{
			// 2^61 elements of 4 bytes on top of a base near the top of the
			// space: the machine product alone overflows int64.
			3: {{Expr: "k", Mult: 4}},
		},
	}
	plan := &Plan{Name: "p", TDL: `PASS { COMP AXPY PARAMS "p0" }`, Calls: []*PlannedCall{pc}}
	b := &Binding{
		Buffers: map[string]BoundBuffer{
			"x": {PA: 0x1000, Elems: 256},
			"y": {PA: 0xffff_ffff_ffff_0000, Elems: 256},
		},
		Ints: map[string]int64{"n": 256, "k": 1 << 61},
	}
	if _, _, err := Bind(plan, b); err == nil || !strings.Contains(err.Error(), "outside the 64-bit physical space") {
		t.Fatalf("overflowing offset bound without error (err=%v)", err)
	}
	// The same call with a sane offset binds, and the offset lands in the
	// address.
	b.Ints["k"] = 16
	_, params, err := Bind(plan, b)
	if err != nil {
		t.Fatal(err)
	}
	// AXPY's head fields are n, alpha, x, y.
	if y, want := descriptor.AddrOf(params["p0"][3]), phys.Addr(0xffff_ffff_ffff_0000+64); y != want {
		t.Errorf("bound y = %v, want %v", y, want)
	}
}
