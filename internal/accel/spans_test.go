package accel

import (
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/units"
)

func TestSpansOfCoversAllOps(t *testing.T) {
	cases := []struct {
		name  string
		op    descriptor.OpCode
		p     descriptor.Params
		bufs  int
		bytes units.Bytes
	}{
		{"axpy", descriptor.OpAXPY,
			AxpyArgs{N: 100, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1}.Params(),
			2, 400 + 800},
		{"dot-real", descriptor.OpDOT,
			DotArgs{N: 100, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1}.Params(),
			3, 400 + 400 + 4},
		{"dot-complex", descriptor.OpDOT,
			DotArgs{N: 100, Complex: true, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 2}.Params(),
			3, 800 + 8*199 + 8},
		{"gemv", descriptor.OpGEMV,
			GemvArgs{M: 4, N: 8, A: 0x1000, Lda: 8, X: 0x2000, Y: 0x3000}.Params(),
			3, 4*32 + 32 + 32},
		{"spmv", descriptor.OpSPMV,
			SpmvArgs{M: 10, Cols: 10, NNZ: 30, RowPtr: 1, ColIdx: 2, Values: 3, X: 4, Y: 5}.Params(),
			5, 44 + 120 + 120 + 120 + 40},
		{"resmp-f32", descriptor.OpRESMP,
			ResmpArgs{NIn: 10, NOut: 20, Kind: 0, Src: 0x1000, Dst: 0x2000}.Params(),
			2, 40 + 80},
		{"resmp-c64", descriptor.OpRESMP,
			ResmpArgs{NIn: 10, NOut: 20, Kind: ResmpComplex, Src: 0x1000, Dst: 0x2000}.Params(),
			2, 80 + 160},
		{"fft-inplace", descriptor.OpFFT,
			FFTArgs{N: 16, HowMany: 2, Src: 0x1000, Dst: 0x1000}.Params(),
			1, 2 * 8 * 32},
		{"fft-outofplace", descriptor.OpFFT,
			FFTArgs{N: 16, HowMany: 2, Src: 0x1000, Dst: 0x2000}.Params(),
			2, 2 * 8 * 32},
		{"reshp", descriptor.OpRESHP,
			ReshpArgs{Rows: 4, Cols: 4, Elem: ElemC64, Src: 0x1000, Dst: 0x2000}.Params(),
			2, 2 * 8 * 16},
	}
	// Classify every address as remote, so remoteBytes sums the traffic of
	// every operand: its streamed bytes once per declared direction.
	cfg := MEALibConfig()
	cfg.StackOf = func(phys.Addr) int { return cfg.HomeStack + 1 }
	for _, c := range cases {
		a, err := Bind(c.op, c.p)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		bufs := map[phys.Addr]bool{}
		for i := 0; i < a.NumOperands(); i++ {
			bufs[a.Operand(i).Addr] = true
		}
		if len(bufs) != c.bufs {
			t.Errorf("%s: %d buffers, want %d", c.name, len(bufs), c.bufs)
		}
		if total := cfg.remoteBytes(a); total != c.bytes {
			t.Errorf("%s: %v bytes, want %v", c.name, total, c.bytes)
		}
	}
}

func TestRemoteBytesClassification(t *testing.T) {
	cfg := MEALibConfig()
	// Addresses below 0x8000_0000 are stack 0 (home); above, stack 1.
	cfg.StackOf = func(a phys.Addr) int {
		if a < 0x8000_0000 {
			return 0
		}
		return 1
	}
	cfg.HomeStack = 0
	bind := func(a AxpyArgs) Args {
		bound, err := Bind(descriptor.OpAXPY, a.Params())
		if err != nil {
			t.Fatal(err)
		}
		return bound
	}
	local := bind(AxpyArgs{N: 1000, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1})
	if remote := cfg.remoteBytes(local); remote != 0 {
		t.Errorf("local buffers: remote = %v", remote)
	}
	mixed := bind(AxpyArgs{N: 1000, X: 0x9000_0000, Y: 0x2000, IncX: 1, IncY: 1})
	if remote := cfg.remoteBytes(mixed); remote != 4000 {
		t.Errorf("remote x: %v bytes, want 4000", remote)
	}
	// Without a stack map everything is local.
	cfg.StackOf = nil
	if remote := cfg.remoteBytes(mixed); remote != 0 {
		t.Errorf("nil StackOf must classify nothing as remote, got %v", remote)
	}
}

func TestRemotePenaltyShape(t *testing.T) {
	cfg := MEALibConfig()
	t0, e0 := cfg.remotePenalty(0)
	if t0 != 0 || e0 != 0 {
		t.Error("zero remote traffic must be free")
	}
	t1, e1 := cfg.remotePenalty(1 * units.MiB)
	t2, e2 := cfg.remotePenalty(2 * units.MiB)
	if t1 <= 0 || e1 <= 0 {
		t.Fatal("remote traffic must cost something")
	}
	if t2 <= t1 || e2 <= e1 {
		t.Error("penalty must grow with traffic")
	}
	// The penalty is the link/TSV differential: well below the raw link time.
	if t1 >= cfg.RemoteLinkBW.Time(1*units.MiB) {
		t.Error("penalty must subtract the local streaming time")
	}
	// No link bandwidth configured: no penalty model.
	cfg.RemoteLinkBW = 0
	if tt, _ := cfg.remotePenalty(units.MiB); tt != 0 {
		t.Error("zero link bandwidth must disable the penalty")
	}
}

func TestCoreErrorPaths(t *testing.T) {
	r := newRig(t)
	cases := []struct {
		name string
		op   descriptor.OpCode
		p    descriptor.Params
	}{
		{"axpy negative n", descriptor.OpAXPY, AxpyArgs{N: -1, IncX: 1, IncY: 1}.Params()},
		{"dot negative n", descriptor.OpDOT, DotArgs{N: -5, IncX: 1, IncY: 1}.Params()},
		{"gemv bad lda", descriptor.OpGEMV, GemvArgs{M: 2, N: 4, Lda: 2}.Params()},
		{"spmv negative", descriptor.OpSPMV, SpmvArgs{M: -1}.Params()},
		{"resmp too short", descriptor.OpRESMP, ResmpArgs{NIn: 1, NOut: 4}.Params()},
		{"resmp bad kind", descriptor.OpRESMP, ResmpArgs{NIn: 8, NOut: 4, Kind: 9, Src: 0x10000, Dst: 0x10000}.Params()},
		{"fft zero batch", descriptor.OpFFT, FFTArgs{N: 8, HowMany: 0}.Params()},
		{"reshp negative", descriptor.OpRESHP, ReshpArgs{Rows: -1, Cols: 4}.Params()},
		{"reshp bad elem", descriptor.OpRESHP, ReshpArgs{Rows: 2, Cols: 2, Elem: 9, Src: 0x10000, Dst: 0x10000}.Params()},
	}
	for _, c := range cases {
		if _, err := execute(r.space, c.op, c.p, IterVec{}); err == nil {
			t.Errorf("%s: must fail", c.name)
		}
	}
}

func TestResmpComplexCore(t *testing.T) {
	r := newRig(t)
	src := []complex64{0, 2 + 2i, 4 + 4i, 6 + 6i}
	sa, da := r.alloc(32), r.alloc(64)
	if err := phys.Store(r.space, sa, src); err != nil {
		t.Fatal(err)
	}
	w, err := execute(r.space, descriptor.OpRESMP, ResmpArgs{
		NIn: 4, NOut: 7, Kind: ResmpComplex + int64(kernels.InterpLinear), Src: sa, Dst: da,
	}.Params(), IterVec{})
	if err != nil {
		t.Fatal(err)
	}
	if w.InStream != 32 || w.OutStream != 56 {
		t.Errorf("complex resample traffic: %+v", w)
	}
	got, err := phys.Load[complex64](r.space, da, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := complex(float32(i), float32(i))
		if v != want {
			t.Errorf("out[%d] = %v, want %v", i, v, want)
		}
	}
}
