// Package descriptor is analyzer test data: the encoder builds no scratch
// space, and the descriptor package is where the instruction kinds are
// switched on.
package descriptor

import "mealib/internal/phys"

type InstrKind uint8

const KindComp InstrKind = 0

var scratch = phys.NewSpace // want `one-walk: phys\.NewSpace`

func size(k InstrKind) int {
	switch k {
	case KindComp:
		return 2
	}
	return 1
}
