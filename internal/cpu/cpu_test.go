package cpu

import (
	"math"
	"testing"

	"mealib/internal/units"
)

func TestHaswellValid(t *testing.T) {
	if err := Haswell().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	h := Haswell()
	h.Cores = 0
	if err := h.Validate(); err == nil {
		t.Error("zero cores must fail")
	}
	h2 := Haswell()
	h2.ComputeEff = 1.2
	if err := h2.Validate(); err == nil {
		t.Error("efficiency > 1 must fail")
	}
	h3 := Haswell()
	h3.Cache = nil
	if err := h3.Validate(); err == nil {
		t.Error("missing cache must fail")
	}
}

func TestRunComputeBound(t *testing.T) {
	h := Haswell()
	// 1 TFLOP with negligible traffic: bound by 112 GFLOPS x 0.82.
	r := h.run(1e12, 64)
	want := 1e12 / (112e9 * 0.82)
	if math.Abs(float64(r.Time)-want)/want > 1e-9 {
		t.Errorf("compute-bound time %v, want %v", r.Time, units.Seconds(want))
	}
	if !units.CloseTo(float64(r.Energy), float64(h.ActivePower.Energy(r.Time))) {
		t.Error("energy must be active power x time")
	}
}

func TestRunMemoryBound(t *testing.T) {
	h := Haswell()
	// 1 GB with negligible flops: bound by 25.6 GB/s.
	r := h.run(10, 1e9)
	want := 1e9 / 25.6e9
	if math.Abs(float64(r.Time)-want)/want > 1e-9 {
		t.Errorf("memory-bound time %v, want %v", r.Time, units.Seconds(want))
	}
}

func TestWaitUsesIdlePower(t *testing.T) {
	h := Haswell()
	r := h.Wait(2)
	if !units.CloseTo(float64(r.Time), 2) {
		t.Errorf("wait time %v", r.Time)
	}
	if !units.CloseTo(float64(r.Energy), float64(h.IdlePower.Energy(2))) {
		t.Errorf("wait energy %v", r.Energy)
	}
	if h.IdlePower >= h.ActivePower {
		t.Error("idle power must be below active power")
	}
}
