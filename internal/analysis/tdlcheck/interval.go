// Symbolic interval analysis of loop-carried address arithmetic. A stride
// times a trip count can overflow 64 bits and a base plus an extent can wrap
// past 2^64, so a descriptor can name a small, plausible span while its loop
// nest walks far outside it — addrflow's provenance-stripping bug, hidden in
// a TDL loop. Every operand's byte size must fit 63 bits (operandBytes), and
// its whole-nest extent, span.Strided.Extent in checked arithmetic, must keep
// every iteration inside [0, 2^64) with a size inside 63 bits
// (checkIntervals). Only an operand Extent refuses is re-evaluated exactly,
// to name the witness iteration and the out-of-range value: the offset is
// linear in each induction variable, so the minimum start is at the last
// trip of every negative-stride level and the maximum end at the last trip
// of every positive-stride level.

package tdlcheck

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// operandBytes proves an operand's declared footprint,
// Elem*((N-1)*|Step| + Tail) bytes or nothing when N <= 0, fits the
// verifier's 63-bit size domain and returns it. The runtime evaluates the
// same terms in machine arithmetic (accel.Operand.Bytes) and is exposed to
// overflow; here every product and sum is checked, and whatever the checked
// path cannot certify is re-evaluated exactly before it is judged.
func operandBytes(o accel.Operand, op descriptor.OpCode, fail func(format string, args ...interface{})) (units.Bytes, bool) {
	if o.N <= 0 {
		return 0, true
	}
	if step := max(o.Step, -o.Step); step >= 0 && o.Tail >= 0 && o.Elem >= 0 {
		rows, ok1 := mulFits(o.N-1, step)
		elems, ok2 := rows+o.Tail, rows+o.Tail >= rows
		bytes, ok3 := mulFits(elems, o.Elem)
		if ok1 && ok2 && ok3 {
			return units.Bytes(bytes), true
		}
	}
	v := new(big.Int).Abs(big.NewInt(o.Step))
	v.Mul(v, big.NewInt(o.N-1))
	v.Add(v, big.NewInt(o.Tail))
	v.Mul(v, big.NewInt(o.Elem))
	if v.Sign() < 0 || !v.IsInt64() {
		fail("%v: operand %s: byte size %v exceeds the verifier's 63-bit size domain", op, o.Name, v)
		return 0, false
	}
	return units.Bytes(v.Int64()), true
}

// mulFits multiplies two non-negative values, reporting whether the product
// is representable.
func mulFits(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return int64(lo), hi == 0 && lo <= math.MaxInt64
}

// witness is the iteration vector (one index per hardware loop level) at
// which an interval bound is attained.
type witness [descriptor.MaxLoopLevels]int64

// String renders the vector innermost-last, matching LoopCounts order.
func (w witness) String() string {
	s := "("
	for l, i := range w {
		if l > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", i)
	}
	return s + ")"
}

// checkIntervals proves, for every operand of the invocation and every trip
// of its enclosing loop nest, that the per-iteration span stays inside the
// 64-bit physical address space and that the whole-loop extent is
// representable. An operand whose Extent is refused is judged in exact
// arithmetic, which reports the iteration vector that first escapes.
func checkIntervals(c *comp, e *errs) {
	for i := range c.ops {
		if _, ok := c.ops[i].Extent(c.counts); !ok {
			checkIntervalExact(c, &c.ops[i], e)
		}
	}
}

func checkIntervalExact(c *comp, o *operand, e *errs) {
	start := new(big.Int).SetUint64(uint64(o.Addr))
	end := new(big.Int).Add(start, big.NewInt(int64(o.Bytes)))
	var witMin, witMax witness
	for l := range c.counts {
		n := max(int64(c.counts[l]), 1)
		d := new(big.Int).Mul(big.NewInt(o.Strides[l]), big.NewInt(n-1))
		switch d.Sign() {
		case -1:
			start.Add(start, d)
			witMin[l] = n - 1
		case 1:
			end.Add(end, d)
			witMax[l] = n - 1
		}
	}
	if start.Sign() < 0 {
		e.addf(c.idx, "%v: operand %s %v: loop stride arithmetic underflows the physical address space at iteration %v (start %v < 0); the span the verifier checks does not contain the addresses the loop touches",
			c.op, o.name, o.Span, witMin, start)
	}
	// Strictly below 2^64: a span ending exactly at the top of the space
	// has a machine End() of zero, which silently breaks every Overlaps
	// comparison downstream.
	if end.BitLen() > 64 {
		e.addf(c.idx, "%v: operand %s %v: loop stride arithmetic wraps the 64-bit physical address space at iteration %v (end %v >= 2^64); the span the verifier checks does not contain the addresses the loop touches",
			c.op, o.name, o.Span, witMax, end)
	}
	if total := new(big.Int).Sub(end, start); !total.IsInt64() {
		e.addf(c.idx, "%v: operand %s: whole-loop extent %v bytes exceeds the verifier's 63-bit size domain",
			c.op, o.name, total)
	}
}
