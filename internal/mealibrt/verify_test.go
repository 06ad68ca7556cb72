package mealibrt

import (
	"context"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// wantErr asserts that err is non-nil and carries every fragment, so a
// user staring at a rejected plan gets an actionable message.
func wantErr(t *testing.T, err error, fragments ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an error mentioning %q, got nil", fragments)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("error %q does not mention %q", err, f)
		}
	}
}

func TestAccPlanDescriptorNil(t *testing.T) {
	r := newRuntime(t)
	_, err := r.AccPlanDescriptor(nil)
	wantErr(t, err, "nil descriptor")
}

func TestAccPlanUnresolvedParamRef(t *testing.T) {
	r := newRuntime(t)
	_, err := r.AccPlan(`PASS { COMP FFT PARAMS "missing.para" }`, map[string]descriptor.Params{})
	wantErr(t, err, "line 1", "dangling parameter reference", "missing.para")
}

func TestAccPlanVerifierRejectsBadKernelArgs(t *testing.T) {
	r := newRuntime(t)
	buf, err := r.MemAlloc(8 * 100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.AccPlan(`PASS { COMP FFT PARAMS "fft.para" }`, map[string]descriptor.Params{
		"fft.para": accel.FFTArgs{N: 100, HowMany: 1, Src: buf.PA(), Dst: buf.PA()}.Params(),
	})
	wantErr(t, err, "rejected by the static verifier", "line 1", "not a power of two")
}

func TestAccPlanVerifierRejectsOverflowingLoopCount(t *testing.T) {
	r := newRuntime(t)
	// 2^33 would be silently truncated by the descriptor's 32-bit count
	// field; the parser rejects it before compilation.
	_, err := r.AccPlan(`LOOP 8589934592 { PASS { COMP FFT PARAMS "fft.para" } }`, map[string]descriptor.Params{
		"fft.para": accel.FFTArgs{N: 16, HowMany: 1}.Params(),
	})
	wantErr(t, err, "line 1", "32-bit count field")
}

func TestExecuteRejectsUninitializedRead(t *testing.T) {
	r := newRuntime(t)
	n := 64
	buf, err := r.MemAlloc(units.Bytes(8 * n))
	if err != nil {
		t.Fatal(err)
	}
	// No host store into buf: the FFT would read garbage.
	plan, err := r.AccPlan(`PASS { COMP FFT PARAMS "fft.para" }`, map[string]descriptor.Params{
		"fft.para": accel.FFTArgs{N: int64(n), HowMany: 1, Src: buf.PA(), Dst: buf.PA()}.Params(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute(context.Background())
	wantErr(t, err, "launch rejected by the static verifier", "uninitialized")

	// After the host writes the input, the same plan launches fine, and a
	// second launch may then read what the first one wrote.
	if err := buf.StoreComplex64s(0, make([]complex64, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Execute(context.Background()); err != nil {
		t.Fatalf("initialized launch: %v", err)
	}
	if _, err := plan.Execute(context.Background()); err != nil {
		t.Fatalf("relaunch on accelerator-written data: %v", err)
	}
}

func TestAccPlanRejectsWrappingLoopStride(t *testing.T) {
	r := newRuntime(t)
	buf, err := r.MemAlloc(4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	// The y operand starts near the top of the physical space and advances
	// by 2^62 bytes per loop trip: at the final iteration its span wraps
	// past 2^64. The machine arithmetic the extended-span computation uses
	// overflows here, so only the exact interval analysis can reject it.
	args := accel.AxpyArgs{N: 256, Alpha: 1, X: buf.PA(), Y: 0xffff_ffff_ffff_f000,
		IncX: 1, IncY: 1, LoopStrideY: accel.Lin(1 << 62)}
	_, err = r.AccPlan(`LOOP 4 { PASS { COMP AXPY PARAMS "axpy.para" } }`, map[string]descriptor.Params{
		"axpy.para": args.Params(),
	})
	wantErr(t, err, "rejected by the static verifier", "wraps the 64-bit physical address space", "iteration (0,0,0,3)")
}
