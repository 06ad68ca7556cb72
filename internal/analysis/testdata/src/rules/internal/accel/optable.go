package accel

import "mealib/internal/descriptor"

// The op table is where a switch on the opcode belongs.
func arity(op descriptor.OpCode) int {
	switch op {
	case descriptor.OpDOT:
		return 2
	}
	return 3
}

type Config struct{ NoFusion bool }

// internal/accel is where NoFusion is read.
func fuses(c Config) bool { return !c.NoFusion }
