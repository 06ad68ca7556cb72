package accel

import (
	"testing"

	"mealib/internal/descriptor"
)

// decodeTyped binds p to op and decodes it into a T at iteration zero.
func decodeTyped[T any, P typed[T]](op descriptor.OpCode, p descriptor.Params) (t T, err error) {
	a, err := Bind(op, p)
	if err == nil {
		slots := P(&t).slots()
		a.decode(slots.fields(), IterVec{})
	}
	return t, err
}

func TestArgsRoundTrips(t *testing.T) {
	axpy := AxpyArgs{N: 100, Alpha: 2.5, X: 0x1000, Y: 0x2000, IncX: 1, IncY: -2, LoopStrideX: Lin(400)}
	got, err := decodeTyped[AxpyArgs](descriptor.OpAXPY, axpy.Params())
	if err != nil || got != axpy {
		t.Errorf("axpy round trip: %+v, %v", got, err)
	}

	dot := DotArgs{N: 32, Complex: true, X: 0x100, Y: 0x200, Out: 0x300, IncX: 1, IncY: 4, LoopStrideX: Lin(256), LoopStrideOut: Lin(8)}
	gd, err := decodeTyped[DotArgs](descriptor.OpDOT, dot.Params())
	if err != nil || gd != dot {
		t.Errorf("dot round trip: %+v, %v", gd, err)
	}

	gemv := GemvArgs{M: 16, N: 8, Alpha: 1, Beta: 0.5, A: 0x1000, Lda: 8, X: 0x2000, Y: 0x3000}
	gg, err := decodeTyped[GemvArgs](descriptor.OpGEMV, gemv.Params())
	if err != nil || gg != gemv {
		t.Errorf("gemv round trip: %+v, %v", gg, err)
	}

	spmv := SpmvArgs{M: 5, Cols: 5, NNZ: 9, RowPtr: 1, ColIdx: 2, Values: 3, X: 4, Y: 5, Semiring: SpmvMinPlus, Bias: 2.5}
	gs, err := decodeTyped[SpmvArgs](descriptor.OpSPMV, spmv.Params())
	if err != nil || gs != spmv {
		t.Errorf("spmv round trip: %+v, %v", gs, err)
	}

	resmp := ResmpArgs{NIn: 100, NOut: 200, Kind: 1, Src: 0x10, Dst: 0x20, LoopStrideSrc: Lin(400), LoopStrideDst: Lin(800)}
	gr, err := decodeTyped[ResmpArgs](descriptor.OpRESMP, resmp.Params())
	if err != nil || gr != resmp {
		t.Errorf("resmp round trip: %+v, %v", gr, err)
	}

	fft := FFTArgs{N: 64, Inverse: true, HowMany: 4, Src: 0x100, Dst: 0x100, LoopStrideSrc: Lin(2048), LoopStrideDst: Lin(2048)}
	gf, err := decodeTyped[FFTArgs](descriptor.OpFFT, fft.Params())
	if err != nil || gf != fft {
		t.Errorf("fft round trip: %+v, %v", gf, err)
	}

	reshp := ReshpArgs{Rows: 8, Cols: 16, Elem: ElemC64, Src: 0x1, Dst: 0x2}
	gp, err := decodeTyped[ReshpArgs](descriptor.OpRESHP, reshp.Params())
	if err != nil || gp != reshp {
		t.Errorf("reshp round trip: %+v, %v", gp, err)
	}
}

func TestDecodeWrongFieldCount(t *testing.T) {
	if _, err := decodeTyped[AxpyArgs](descriptor.OpAXPY, descriptor.Params{1, 2}); err == nil {
		t.Error("short AXPY params must fail")
	}
	if _, err := decodeTyped[DotArgs](descriptor.OpDOT, descriptor.Params{1}); err == nil {
		t.Error("short DOT params must fail")
	}
	if _, err := decodeTyped[GemvArgs](descriptor.OpGEMV, descriptor.Params{1}); err == nil {
		t.Error("short GEMV params must fail")
	}
	if _, err := decodeTyped[SpmvArgs](descriptor.OpSPMV, descriptor.Params{1}); err == nil {
		t.Error("short SPMV params must fail")
	}
	if _, err := decodeTyped[ResmpArgs](descriptor.OpRESMP, descriptor.Params{1}); err == nil {
		t.Error("short RESMP params must fail")
	}
	if _, err := decodeTyped[FFTArgs](descriptor.OpFFT, descriptor.Params{1}); err == nil {
		t.Error("short FFT params must fail")
	}
	if _, err := decodeTyped[ReshpArgs](descriptor.OpRESHP, descriptor.Params{1}); err == nil {
		t.Error("short RESHP params must fail")
	}
}

// shifted decodes the typed struct's own parameter block at iteration it:
// the route every core's arguments take.
func shifted[T any](t *testing.T, op descriptor.OpCode, p descriptor.Params, slotsOf func(*T) slotList, it IterVec) T {
	t.Helper()
	a, err := Bind(op, p)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	slots := slotsOf(&out)
	a.decode(slots.fields(), it)
	return out
}

func TestShiftAdvancesBuffers(t *testing.T) {
	a := AxpyArgs{X: 0x1000, Y: 0x2000, LoopStrideX: Lin(0x100), LoopStrideY: Lin(0x200)}
	s := shifted(t, descriptor.OpAXPY, a.Params(), (*AxpyArgs).slots, IterVec{0, 0, 0, 3})
	if s.X != 0x1300 || s.Y != 0x2600 {
		t.Errorf("shift(3) = %v/%v", s.X, s.Y)
	}
	d := DotArgs{X: 0x100, Y: 0x200, Out: 0x300, LoopStrideOut: Lin(8)}
	sd := shifted(t, descriptor.OpDOT, d.Params(), (*DotArgs).slots, IterVec{0, 0, 0, 2})
	if sd.X != 0x100 || sd.Out != 0x310 {
		t.Errorf("dot shift = %+v", sd)
	}
}

func TestMultiLevelStrides(t *testing.T) {
	// A two-level nest: outer level strides a whole plane, inner a row.
	st := Strides{0, 0, 1024, 16}
	if got := st.Offset(IterVec{0, 0, 3, 5}); got != 3*1024+5*16 {
		t.Errorf("offset = %d", got)
	}
	a := DotArgs{X: 0x1000, LoopStrideX: st}
	if got := shifted(t, descriptor.OpDOT, a.Params(), (*DotArgs).slots, IterVec{0, 0, 2, 1}).X; got != 0x1000+2*1024+16 {
		t.Errorf("multi-level shift = %v", got)
	}
}
