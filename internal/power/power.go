// Package power holds the synthesis-derived power and area model of the
// MEALib accelerator layer (paper Table 5, 32 nm Synopsys DC + CACTI-3DD).
// The paper obtains these constants from ASIC synthesis; this reproduction
// takes the published constants as the model, which is exactly how the
// paper's own analytical models consume them (§4.2). An accelerator's row is
// its op-table entry's (accel.SynthesisOf); this package keeps the layer-level
// rows and sums the census over the op table.
package power

import (
	"mealib/internal/accel"
	"mealib/internal/units"
)

// Component is one layer-level row of Table 5.
type Component struct {
	Name string
	// Power is the operating power of the component.
	Power units.Watts
	// Area is the 32 nm layout area.
	Area float64 // mm^2
}

// Table5 reproduces the accelerator-layer census of the paper.
type Table5 struct {
	NoC  Component
	TSVs Component
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
		NoC:             Component{Name: "NoC (router + link)", Power: 0.095, Area: 1.44},
		TSVs:            Component{Name: "TSVs", Power: 0, Area: 1.75},
		LayerArea:       68,
		LogicLayerExtra: Component{Name: "MUX + reshape unit", Power: 0.25, Area: 0.45},
	}
}

// TotalPower returns the layer's power budget: since the accelerators are
// designed to saturate the 510 GB/s internal bandwidth, only one primitive
// accelerator is active at a time, so the budget is the most power-hungry
// accelerator plus the NoC (paper §5.2: 23.85 W).
func (t *Table5) TotalPower() units.Watts {
	var peak units.Watts
	for _, row := range accels() {
		peak = max(peak, row.Power)
	}
	return peak + t.NoC.Power
}

// TotalArea returns the summed component area (paper: 41.77 mm^2).
func (t *Table5) TotalArea() float64 {
	var sum float64
	for _, row := range accels() {
		sum += row.Area
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

// accels is every accelerator's row, in opcode order.
func accels() []accel.Synthesis {
	var rows []accel.Synthesis
	for _, op := range accel.Ops() {
		row, _ := accel.SynthesisOf(op) // the op table declares every op Ops returns
		rows = append(rows, row)
	}
	return rows
}
