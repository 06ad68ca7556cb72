// Symbolic interval analysis of loop-carried address arithmetic.
//
// The extended operand span the overlap and initialization checks reason
// about is computed in machine-width arithmetic (accel.Strides.Extend): a stride
// times a trip count can overflow int64, and a base address plus an extent
// can wrap past 2^64. A descriptor whose arithmetic wraps presents a small,
// plausible-looking span to the verifier while the hardware loop nest it
// describes walks addresses far outside it — the same provenance-stripping
// bug addrflow catches in host code, hidden inside a TDL loop.
//
// This file closes that hole with exact integer arithmetic (math/big):
//
//   - every operand byte size is computed exactly and must fit the 63-bit
//     size domain before a Span is ever built from it (operandBytes);
//   - for every operand of every invocation, the per-iteration span at the
//     extreme trips of the enclosing loop nest is computed exactly and must
//     stay inside [0, 2^64) (checkIntervals). Because the per-iteration
//     offset is linear in each induction variable, the extremes bound every
//     trip: minimum start at the last trip of every negative-stride level,
//     maximum end at the last trip of every positive-stride level.
//
// Once both hold, the machine-width extension is exact — no term
// overflows — so the downstream checks that trust ext are sound. Failures
// carry the witness iteration vector so the error names the first trip the
// descriptor escapes its declared operand.

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

// addrSpace is 2^64, the exclusive upper bound of the physical address
// space.
var addrSpace = new(big.Int).Lsh(big.NewInt(1), 64)

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
// representable. An operand the checked machine arithmetic of intervalFits
// cannot certify is judged in exact arithmetic; a failure reports the
// iteration vector that first escapes.
func checkIntervals(c *comp, e *errs) {
	for i := range c.ops {
		if o := &c.ops[i]; !intervalFits(o, c.counts) {
			checkIntervalExact(c, o, e)
		}
	}
}

func checkIntervalExact(c *comp, o *operand, e *errs) {
	lo := new(big.Int).SetUint64(uint64(o.base.Addr))
	hi := new(big.Int).Add(lo, big.NewInt(int64(o.base.Bytes)))
	minOff, maxOff := new(big.Int), new(big.Int)
	var witMin, witMax witness
	for l := 0; l < descriptor.MaxLoopLevels; l++ {
		n := int64(c.counts[l])
		if n < 1 {
			n = 1
		}
		d := new(big.Int).Mul(big.NewInt(o.strides[l]), big.NewInt(n-1))
		switch d.Sign() {
		case -1:
			minOff.Add(minOff, d)
			witMin[l] = n - 1
		case 1:
			maxOff.Add(maxOff, d)
			witMax[l] = n - 1
		}
	}
	start := new(big.Int).Add(lo, minOff)
	end := new(big.Int).Add(hi, maxOff)
	if start.Sign() < 0 {
		e.addf(c.line, c.idx, "%v: operand %s %v: loop stride arithmetic underflows the physical address space at iteration %v (start %v < 0); the span the verifier checks does not contain the addresses the loop touches",
			c.op, o.name, o.base, witMin, start)
	}
	// Strictly below 2^64: a span ending exactly at the top of the space
	// has a machine End() of zero, which silently breaks every Overlaps
	// comparison downstream.
	if end.Cmp(addrSpace) >= 0 {
		e.addf(c.line, c.idx, "%v: operand %s %v: loop stride arithmetic wraps the 64-bit physical address space at iteration %v (end %v >= 2^64); the span the verifier checks does not contain the addresses the loop touches",
			c.op, o.name, o.base, witMax, end)
	}
	if total := new(big.Int).Sub(end, start); !total.IsInt64() {
		e.addf(c.line, c.idx, "%v: operand %s: whole-loop extent %v bytes exceeds the verifier's 63-bit size domain",
			c.op, o.name, total)
	}
}

// intervalFits certifies checkIntervals' three properties for one operand in
// checked machine arithmetic. False means not certified, never wrong (a stride
// of MinInt64 has no magnitude, and mulFits refuses it): the caller
// re-evaluates exactly before it judges, as operandBytes does.
func intervalFits(o *operand, counts descriptor.LoopCounts) bool {
	var minOff, maxOff uint64 // magnitudes of the extreme offsets
	for l, st := range o.strides {
		mag, ok := mulFits(max(st, -st), max(int64(counts[l]), 1)-1)
		off := &maxOff
		if st < 0 {
			off = &minOff
		}
		var carry uint64
		if *off, carry = bits.Add64(*off, uint64(mag), 0); !ok || carry != 0 {
			return false
		}
	}
	lo := uint64(o.base.Addr)
	end, c1 := bits.Add64(lo, uint64(o.base.Bytes), 0)
	end, c2 := bits.Add64(end, maxOff, 0)
	return minOff <= lo && c1|c2 == 0 && end-(lo-minOff) <= math.MaxInt64
}
