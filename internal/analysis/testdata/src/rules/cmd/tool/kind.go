// Command tool is analyzer test data: outside internal/descriptor a switch
// on the instruction kind is a second parser of the instruction region.
package main

import "mealib/internal/descriptor"

func main() {
	var k descriptor.InstrKind
	switch k { // want `one-walk: switch on mealib/internal/descriptor\.InstrKind`
	case descriptor.KindComp:
	}
}
