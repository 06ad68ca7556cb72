// Package ccompiler is analyzer test data: a dot import hides the opcode's
// package from a grep, not from the op-table row.
package ccompiler

import . "mealib/internal/descriptor"

func name(op OpCode) string {
	switch op { // want `op-table: switch on`
	case OpFFT:
		return "fft"
	}
	return ""
}
