package power

import (
	"math"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

func TestTable5Totals(t *testing.T) {
	tab := MEALib()
	// Paper §5.2: total power 23.85 W (GEMV 23.75 + NoC 0.095, rounded).
	if got := float64(tab.TotalPower()); math.Abs(got-23.85) > 0.01 {
		t.Errorf("total power = %.3f W, want 23.85", got)
	}
	// Paper Table 5: total area 41.77 mm^2, 61.43%% of 68 mm^2.
	if got := tab.TotalArea(); math.Abs(got-41.77) > 0.01 {
		t.Errorf("total area = %.2f mm^2, want 41.77", got)
	}
	if got := tab.AreaFraction(); math.Abs(got-0.6143) > 0.001 {
		t.Errorf("area fraction = %.4f, want 0.6143", got)
	}
}

// TestAccelPower pins each accelerator's Table 5 power, which its op-table
// entry carries.
func TestAccelPower(t *testing.T) {
	cases := map[descriptor.OpCode]float64{
		descriptor.OpAXPY:  23.56,
		descriptor.OpDOT:   23.49,
		descriptor.OpGEMV:  23.75,
		descriptor.OpSPMV:  15.44,
		descriptor.OpRESMP: 8.19,
		descriptor.OpFFT:   18.89,
		descriptor.OpRESHP: 22.70,
	}
	for op, want := range cases {
		got, err := accel.SynthesisOf(op)
		if err != nil {
			t.Errorf("%v: %v", op, err)
			continue
		}
		if !units.CloseTo(float64(got.Power), want) {
			t.Errorf("%v power = %v, want %v", op, got.Power, want)
		}
	}
	if _, err := accel.SynthesisOf(descriptor.OpInvalid); err == nil {
		t.Error("invalid opcode must fail")
	}
}

func TestRESHPOnLogicLayer(t *testing.T) {
	tab := MEALib()
	if row, err := accel.SynthesisOf(descriptor.OpRESHP); err != nil || row.Area != 0 {
		t.Error("RESHP occupies no accelerator-layer area (it is on the DRAM logic layer)")
	}
	if !units.CloseTo(float64(tab.LogicLayerExtra.Power), 0.25) {
		t.Errorf("logic-layer extra power = %v, want 0.25 W", tab.LogicLayerExtra.Power)
	}
}

func TestAreaFractionZeroLayer(t *testing.T) {
	tab := MEALib()
	tab.LayerArea = 0
	if tab.AreaFraction() != 0 {
		t.Error("zero layer area must yield 0 fraction, not Inf")
	}
}
