// Package accel is analyzer test data for the rows that keep what an opcode
// is, the executor, the descriptor walk and the strided extent in one place
// each.
package accel

import (
	d "mealib/internal/descriptor"
)

func cost(op d.OpCode) int {
	switch op { // want `op-table: switch on mealib/internal/descriptor\.OpCode`
	case d.OpAXPY:
		return 2
	}
	return 1
}

func runLoop() {} // want `one-executor: runLoop`

func descBytesOf() int { return 0 } // want `one-walk: descBytesOf`

// The lowering parses the descriptors it compiles.
func passes(desc *d.Descriptor) int {
	scopes, _ := desc.Scopes()
	return len(scopes)
}

type span struct{ lo, hi int }

func (s span) Extend(t span) span { return span{s.lo, t.hi} } // want `one-extent: Extend`

type waiter struct{} // want `one-launch-record: type waiter`

type LinkController struct{} // want `one-launch-record: LinkController`

func local() int {
	flight := 1 // a variable may be called flight; a type may not
	return flight
}
