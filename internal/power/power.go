// Package power holds the synthesis-derived power and area model of the
// MEALib accelerator layer (paper Table 5, 32 nm Synopsys DC + CACTI-3DD).
// The paper obtains these constants from ASIC synthesis; this reproduction
// takes the published constants as the model, which is exactly how the
// paper's own analytical models consume them (§4.2).
package power

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// Component is one row of Table 5.
type Component struct {
	// Name labels the row; an accelerator's row is its opcode's mnemonic
	// (descriptor.OpCode.String) and leaves it empty.
	Name string
	// Power is the operating power of the component. For primitive
	// accelerators it includes the accelerator and the 3D DRAM power
	// (TSVs included), as in the paper.
	Power units.Watts
	// Area is the 32 nm layout area. RESHP lives on the DRAM logic layer,
	// so it contributes no accelerator-layer area (zero here).
	Area float64 // mm^2
}

// Table5 reproduces the accelerator-layer census of the paper.
type Table5 struct {
	Accels map[descriptor.OpCode]Component
	NoC    Component
	TSVs   Component
	// LayerArea is the available accelerator-layer area (the HMC 2011 DRAM
	// die area the paper assumes).
	LayerArea float64 // mm^2
	// LogicLayerExtra is the MUX + data reshape unit added to the DRAM
	// logic layer (§5.2: 0.25 W, 0.45 mm^2, 0.66% of the logic layer).
	LogicLayerExtra Component
}

// MEALib returns the published Table 5 values.
func MEALib() *Table5 {
	return &Table5{
		Accels: map[descriptor.OpCode]Component{
			descriptor.OpAXPY:  {Power: 23.56, Area: 1.38},
			descriptor.OpDOT:   {Power: 23.49, Area: 1.81},
			descriptor.OpGEMV:  {Power: 23.75, Area: 2.45},
			descriptor.OpSPMV:  {Power: 15.44, Area: 14.17},
			descriptor.OpRESMP: {Power: 8.19, Area: 2.64},
			descriptor.OpFFT:   {Power: 18.89, Area: 16.13},
			descriptor.OpRESHP: {Power: 22.70, Area: 0},
		},
		NoC:             Component{Name: "NoC (router + link)", Power: 0.095, Area: 1.44},
		TSVs:            Component{Name: "TSVs", Power: 0, Area: 1.75},
		LayerArea:       68,
		LogicLayerExtra: Component{Name: "MUX + reshape unit", Power: 0.25, Area: 0.45},
	}
}

// AccelPower returns the operating power of one accelerator (including its
// share of 3D DRAM power, per the paper's accounting).
func (t *Table5) AccelPower(op descriptor.OpCode) (units.Watts, error) {
	c, ok := t.Accels[op]
	if !ok {
		return 0, fmt.Errorf("power: no Table 5 entry for %v", op)
	}
	return c.Power, nil
}

// TotalPower returns the layer's power budget: since the accelerators are
// designed to saturate the 510 GB/s internal bandwidth, only one primitive
// accelerator is active at a time, so the budget is the most power-hungry
// accelerator plus the NoC (paper §5.2: 23.85 W).
func (t *Table5) TotalPower() units.Watts {
	var peak units.Watts
	for _, c := range t.Accels {
		if c.Power > peak {
			peak = c.Power
		}
	}
	return peak + t.NoC.Power
}

// TotalArea returns the summed component area (paper: 41.77 mm^2).
func (t *Table5) TotalArea() float64 {
	var sum float64
	for _, c := range t.Accels {
		sum += c.Area
	}
	return sum + t.NoC.Area + t.TSVs.Area
}

// AreaFraction returns the fraction of the accelerator layer the components
// occupy (paper: 61.43%).
func (t *Table5) AreaFraction() float64 {
	if t.LayerArea <= 0 {
		return 0
	}
	return t.TotalArea() / t.LayerArea
}
