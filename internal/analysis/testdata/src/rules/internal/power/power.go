// Package power is analyzer test data: an accelerator's power looked up
// beside its op-table entry.
package power

type table5 struct{ accels map[uint8]float64 }

func (t *table5) AccelPower(op uint8) float64 { return t.accels[op] } // want `one-accelerator-entry: AccelPower`
