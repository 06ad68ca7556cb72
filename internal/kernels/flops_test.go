package kernels

import (
	"testing"

	"mealib/internal/units"
)

func TestFlopCounts(t *testing.T) {
	if !units.CloseTo(float64(SaxpyFlops(100)), 200) {
		t.Error("saxpy flops")
	}
	if !units.CloseTo(float64(SdotFlops(100)), 200) {
		t.Error("sdot flops")
	}
	if !units.CloseTo(float64(SgemvFlops(10, 20)), 400) {
		t.Error("sgemv flops")
	}
	if !units.CloseTo(float64(SpmvFlops(50)), 100) {
		t.Error("spmv flops")
	}
	if FFTFlops(1) != 0 {
		t.Error("fft flops for n=1 must be 0")
	}
	if got := FFTFlops(1024); !units.CloseTo(float64(got), 5*1024*10) {
		t.Errorf("fft flops for 1024 = %v, want 51200", got)
	}
	if !units.CloseTo(float64(CdotcFlops(10)), 80) {
		t.Error("cdotc flops")
	}
	if !units.CloseTo(float64(CherkFlops(10, 5)), 2000) {
		t.Error("cherk flops")
	}
	if !units.CloseTo(float64(CtrsmFlops(10, 5)), 2000) {
		t.Error("ctrsm flops")
	}
}

func TestByteCounts(t *testing.T) {
	if SaxpyBytes(100) != 1200 {
		t.Error("saxpy bytes")
	}
	if SdotBytes(100) != 800 {
		t.Error("sdot bytes")
	}
	if TransposeBytes(10, 20) != 1600 {
		t.Error("transpose bytes")
	}
	if FFTBytes(100, 0) != FFTBytes(100, 1) {
		t.Error("fft bytes must clamp passes to >= 1")
	}
	if FFTBytes(100, 2) != 2*FFTBytes(100, 1) {
		t.Error("fft bytes must scale with passes")
	}
	if ResampleBytes(10, 20) != 120 {
		t.Error("resample bytes")
	}
	if SpmvBytes(10, 100) != 4*300+4*11+4*10 {
		t.Error("spmv bytes")
	}
	if SgemvBytes(4, 8) != 4*(32+8+8) {
		t.Error("sgemv bytes")
	}
}
