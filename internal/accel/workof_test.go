package accel

import (
	"bytes"
	"math/rand"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/span"
)

// execute runs one invocation functionally against the space at iteration it
// and returns its workload profile, as a launch does through a template.
func execute(s *phys.Space, op descriptor.OpCode, p descriptor.Params, it IterVec) (Work, error) {
	a, err := Bind(op, p)
	if err != nil {
		return Work{}, err
	}
	c := boundComp{Args: a, typed: a.spec.core.decode(a)}
	if b := a.spec.core.run(s, &c, iters{it: it, n: 1}); b.err != nil {
		return Work{}, b.err
	}
	return a.Work(), nil
}

// checkFootprint runs one invocation in a fresh space that maps exactly the
// bytes its table entry declares at iteration it — regions are
// byte-granular and any access outside one errors — and checks the core
// succeeds there, changes no byte outside its declared writes, and reports
// the table's work.
func checkFootprint(t *testing.T, rng *rand.Rand, op descriptor.OpCode, a Args, it IterVec) {
	t.Helper()
	spans, ok := a.appendIO(nil, it)
	if !ok {
		t.Fatalf("%v %v: footprint wraps", op, a.p)
	}
	var mapped span.Set
	for _, sp := range spans {
		mapped.Add(sp.Span)
	}
	s := phys.NewSpace(1 << 40)
	for _, sp := range mapped.All() {
		r, err := s.Map(sp.Addr, sp.Bytes)
		if err != nil {
			t.Fatal(err)
		}
		view, _ := phys.ViewOf[float32](s, r.Addr(), int(r.Size())/4)
		words := view.Data
		for i := range words {
			words[i] = float32(rng.Intn(17) - 8)
		}
	}
	if fill := indexFill[op]; fill != nil {
		fill(t, rng, s, a, it)
	}
	before := map[phys.Addr][]byte{}
	for _, sp := range mapped.All() {
		r, _ := s.Region(sp.Addr)
		before[sp.Addr] = bytes.Clone(r.Bytes())
	}

	w, err := execute(s, op, a.p, it)
	if err != nil {
		t.Fatalf("%v %v at %v: core failed inside its declared footprint: %v", op, a.p, it, err)
	}
	if want := a.Work(); w != want {
		t.Errorf("%v %v: executed work %+v, table says %+v", op, a.p, w, want)
	}
	written := map[phys.Addr]bool{}
	for _, sp := range spans {
		for b := sp.Addr; sp.Write && b < sp.End(); b++ {
			written[b] = true
		}
	}
	for base, old := range before {
		r, _ := s.Region(base)
		for i, b := range r.Bytes() {
			if at := base + phys.Addr(i); b != old[i] && !written[at] {
				t.Fatalf("%v %v at %v: byte %v changed outside the declared writes", op, a.p, it, at)
			}
		}
	}
}

// checkFootprintProperty is checkFootprint over randomised arguments and a
// few iteration vectors.
func checkFootprintProperty(t *testing.T, op descriptor.OpCode) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(op)))
	for trial := 0; trial < 60; trial++ {
		a, ok := drawArgs(randomBits(rng, 4096), op)
		if !ok {
			t.Fatalf("%v: no valid parameter block drawn", op)
		}
		for _, it := range []IterVec{{}, {0, 0, 0, 1}, {0, 1, 2, 3}} {
			checkFootprint(t, rng, op, a, it)
		}
	}
}

// TestWorkOfMatchesFunctionalCores is the footprint property over every
// entry of the op table: a new accelerator is covered by being in the table.
func TestWorkOfMatchesFunctionalCores(t *testing.T) {
	for op, spec := range specs {
		if spec != nil {
			checkFootprintProperty(t, descriptor.OpCode(op))
		}
	}
}

// TestWorkModelPinned pins the work model of every accelerator to numbers
// written out by hand, so an edit to a table entry that shifts traffic or
// flops (and with them model time and energy) cannot pass unnoticed.
func TestWorkModelPinned(t *testing.T) {
	const n = 64
	cases := []struct {
		name string
		op   descriptor.OpCode
		p    descriptor.Params
		want Work
	}{
		{"axpy", descriptor.OpAXPY, AxpyArgs{N: n, Alpha: 1, IncX: 1, IncY: -2}.Params(),
			Work{Flops: kernels.SaxpyFlops(n), InStream: 4 * (64 + 127), OutStream: 4 * 127}},
		{"sdot", descriptor.OpDOT, DotArgs{N: n, IncX: 1, IncY: 1}.Params(),
			Work{Flops: kernels.SdotFlops(n), InStream: 4 * 128, OutStream: 4}},
		{"cdotc", descriptor.OpDOT, DotArgs{N: n, Complex: true, IncX: 1, IncY: 1}.Params(),
			Work{Flops: kernels.CdotcFlops(n), InStream: 8 * 128, OutStream: 8}},
		// y streams in whatever beta is: the datapath is fixed-function.
		{"gemv", descriptor.OpGEMV, GemvArgs{M: 8, N: 6, Alpha: 1, Beta: 0, Lda: 10}.Params(),
			Work{Flops: kernels.SgemvFlops(8, 6), InStream: 4 * (7*10 + 6 + 6 + 8), OutStream: 4 * 8}},
		// x is a Cols-element footprint but NNZ gathered elements of traffic.
		{"spmv", descriptor.OpSPMV, SpmvArgs{M: n, Cols: 9, NNZ: 2 * n}.Params(),
			Work{Flops: kernels.SpmvFlops(2 * n), InStream: 4 * (2*2*n + n + 1), OutStream: 4 * n, Random: 4 * 2 * n}},
		{"resmp", descriptor.OpRESMP, ResmpArgs{NIn: n, NOut: 2 * n}.Params(),
			Work{Flops: kernels.ResampleFlops(2 * n), InStream: 4 * n, OutStream: 8 * n}},
		{"resmp-c64", descriptor.OpRESMP, ResmpArgs{NIn: n, NOut: 2 * n, Kind: ResmpComplex}.Params(),
			Work{Flops: 2 * kernels.ResampleFlops(2*n), InStream: 8 * n, OutStream: 16 * n}},
		{"fft", descriptor.OpFFT, FFTArgs{N: n, HowMany: 2}.Params(),
			Work{Flops: 2 * kernels.FFTFlops(n), InStream: 8 * 2 * n, OutStream: 8 * 2 * n}},
		{"reshp-f32", descriptor.OpRESHP, ReshpArgs{Rows: 8, Cols: 4, Elem: ElemF32}.Params(),
			Work{InStream: 4 * 32, OutStream: 4 * 32}},
		{"reshp-c64", descriptor.OpRESHP, ReshpArgs{Rows: 8, Cols: 4, Elem: ElemC64}.Params(),
			Work{InStream: 8 * 32, OutStream: 8 * 32}},
	}
	for _, c := range cases {
		if got, err := WorkOf(c.op, c.p); err != nil || got != c.want {
			t.Errorf("%s: WorkOf = %+v, %v; want %+v", c.name, got, err, c.want)
		}
	}
}

func TestWorkOfErrors(t *testing.T) {
	if _, err := WorkOf(descriptor.OpInvalid, nil); err == nil {
		t.Error("invalid opcode must fail")
	}
	if _, err := WorkOf(descriptor.OpAXPY, descriptor.Params{1}); err == nil {
		t.Error("short params must fail")
	}
}
