package mealibrt

import "mealib/internal/units"

type Runtime struct{}

func (r *Runtime) runOOC() {
	var t units.Seconds // want `one-price: units\.Seconds`
	_ = t
}

// Outside runOOC the model clock is fine.
func (r *Runtime) price() units.Seconds { return 0 }
