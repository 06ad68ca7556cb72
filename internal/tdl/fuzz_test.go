// External test package: the fuzzers exercise the parser together with the
// runtime (internal/mealibrt), which imports tdl — an in-package test would
// be an import cycle.
package tdl_test

import (
	"context"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/tdl"
	"mealib/internal/units"
)

// FuzzParse hardens the TDL front end: arbitrary input must never panic,
// and anything that parses must survive Format -> Parse -> Compile. On
// top of that sits the verifier contract: a program that AccPlan installs
// with well-formed parameters must never panic the runtime — at worst it may
// fail with a clean error (capacity limits, command-space exhaustion).
func FuzzParse(f *testing.F) {
	seeds := []string{
		`PASS { COMP FFT PARAMS "fft.para" }`,
		`LOOP 128 { PASS { COMP DOT PARAMS "dot.para" } }`,
		`LOOP 4 8 16 { PASS { COMP AXPY PARAMS "a" COMP RESHP PARAMS "b" } }`,
		"# comment only",
		`PASS {`,
		`LOOP { PASS { COMP FFT PARAMS "p" } }`,
		`PASS { COMP NOPE PARAMS "p" }`,
		"\x00\xff{}",
		`LOOP 99999999999999999999 { PASS { COMP FFT PARAMS "p" } }`,
		`LOOP 8589934592 { PASS { COMP FFT PARAMS "p" } }`,
		`PASS { COMP GEMV PARAMS "g" } PASS { COMP SPMV PARAMS "s" } PASS { COMP RESMP PARAMS "r" }`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := tdl.Parse(src)
		if err != nil {
			return
		}
		text := tdl.Format(prog)
		prog2, err := tdl.Parse(text)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\n%q", err, text)
		}
		resolver := func(string) (descriptor.Params, error) { return descriptor.Params{1}, nil }
		d1, err1 := tdl.Compile(prog, resolver)
		d2, err2 := tdl.Compile(prog2, resolver)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("compile divergence: %v vs %v", err1, err2)
		}
		if err1 == nil && len(d1.Instrs) != len(d2.Instrs) {
			t.Fatalf("instruction count divergence: %d vs %d", len(d1.Instrs), len(d2.Instrs))
		}
		execVerified(t, prog)
	})
}

// execVerified binds op-correct parameters to every reference in the
// program, runs the static verifier, and — when it accepts — compiles and
// executes the program on a fresh runtime. Execution errors are tolerated
// (instruction memory and command space are finite); panics are not.
func execVerified(t *testing.T, prog *tdl.Program) {
	// Functional execution is per-iteration; bound the work so the fuzzer
	// stays fast and wrap-around in huge loop products cannot hang it.
	total := 0
	for _, b := range prog.Blocks {
		switch v := b.(type) {
		case tdl.Pass:
			total += len(v.Comps)
		case tdl.Loop:
			iters := 1
			for _, c := range v.Counts {
				if c <= 0 || c > 4096 || iters > 4096/c {
					return
				}
				iters *= c
			}
			for _, p := range v.Passes {
				total += iters * len(p.Comps)
			}
		}
	}
	if total > 4096 {
		return
	}

	r, err := mealibrt.New(mealibrt.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	params := make(map[string]descriptor.Params)
	ok := true
	eachComp(prog, func(c tdl.Comp) {
		if _, seen := params[c.ParamRef]; seen || !ok {
			return
		}
		p, built := buildParams(t, r, c.Op)
		if !built {
			ok = false // address space exhausted: nothing to assert
			return
		}
		params[c.ParamRef] = p
	})
	if !ok {
		return
	}
	plan, err := r.AccPlan(tdl.Format(prog), params)
	if err != nil {
		return // rejected by the verifier, or e.g. exceeds instruction memory
	}
	_, _ = plan.Execute(context.Background()) // errors tolerated; a panic fails the fuzzer
}

// eachComp visits every COMP in program order.
func eachComp(prog *tdl.Program, fn func(tdl.Comp)) {
	for _, b := range prog.Blocks {
		switch v := b.(type) {
		case tdl.Pass:
			for _, c := range v.Comps {
				fn(c)
			}
		case tdl.Loop:
			for _, p := range v.Passes {
				for _, c := range p.Comps {
					fn(c)
				}
			}
		}
	}
}

// buildParams allocates and initializes operand buffers for one opcode
// and returns a well-formed argument block. Reports false when the
// runtime cannot allocate (programs with very many references).
func buildParams(t *testing.T, r *mealibrt.Runtime, op descriptor.OpCode) (descriptor.Params, bool) {
	failed := false
	alloc := func(n units.Bytes) *mealibrt.Buffer {
		b, err := r.MemAlloc(n)
		if err != nil {
			failed = true
			return nil
		}
		return b
	}
	storeF := func(b *mealibrt.Buffer, n int) {
		if b == nil {
			return
		}
		if err := b.StoreFloat32s(0, make([]float32, n)); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	storeC := func(b *mealibrt.Buffer, n int) {
		if b == nil {
			return
		}
		if err := b.StoreComplex64s(0, make([]complex64, n)); err != nil {
			t.Fatalf("store: %v", err)
		}
	}
	var p descriptor.Params
	switch op {
	case descriptor.OpAXPY:
		x, y := alloc(64), alloc(64)
		if failed {
			return nil, false
		}
		storeF(x, 16)
		storeF(y, 16)
		p = accel.AxpyArgs{N: 16, Alpha: 1, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1}.Params()
	case descriptor.OpDOT:
		x, y, out := alloc(64), alloc(64), alloc(64)
		if failed {
			return nil, false
		}
		storeF(x, 16)
		storeF(y, 16)
		p = accel.DotArgs{N: 16, X: x.PA(), Y: y.PA(), Out: out.PA(), IncX: 1, IncY: 1}.Params()
	case descriptor.OpGEMV:
		a, x, y := alloc(64), alloc(16), alloc(16)
		if failed {
			return nil, false
		}
		storeF(a, 16)
		storeF(x, 4)
		p = accel.GemvArgs{M: 4, N: 4, Alpha: 1, Beta: 0, A: a.PA(), Lda: 4, X: x.PA(), Y: y.PA()}.Params()
	case descriptor.OpSPMV:
		rowPtr, colIdx, vals := alloc(64), alloc(64), alloc(64)
		x, y := alloc(16), alloc(16)
		if failed {
			return nil, false
		}
		if err := rowPtr.StoreInt32s(0, []int32{0, 1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
		if err := colIdx.StoreInt32s(0, []int32{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		storeF(vals, 4)
		storeF(x, 4)
		p = accel.SpmvArgs{M: 4, Cols: 4, NNZ: 4,
			RowPtr: rowPtr.PA(), ColIdx: colIdx.PA(), Values: vals.PA(),
			X: x.PA(), Y: y.PA()}.Params()
	case descriptor.OpRESMP:
		src, dst := alloc(128), alloc(128)
		if failed {
			return nil, false
		}
		storeF(src, 8)
		p = accel.ResmpArgs{NIn: 8, NOut: 8, Kind: 0, Src: src.PA(), Dst: dst.PA()}.Params()
	case descriptor.OpFFT:
		src, dst := alloc(128), alloc(128)
		if failed {
			return nil, false
		}
		storeC(src, 16)
		p = accel.FFTArgs{N: 16, HowMany: 1, Src: src.PA(), Dst: dst.PA()}.Params()
	case descriptor.OpRESHP:
		src, dst := alloc(64), alloc(64)
		if failed {
			return nil, false
		}
		storeF(src, 16)
		p = accel.ReshpArgs{Rows: 4, Cols: 4, Elem: accel.ElemF32, Src: src.PA(), Dst: dst.PA()}.Params()
	default:
		return nil, false // unknown opcode: the verifier rejects it anyway
	}
	return p, true
}
