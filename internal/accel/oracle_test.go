package accel

import (
	"mealib/internal/phys"
	"mealib/internal/span"
)

// appendIO is the tests' footprint oracle: the invocation's directional spans
// at iteration it, derived from its resolved operands directly rather than
// through the span.Strided list the layer lowers from. ok is false when an
// operand wraps the address space.
func (a Args) appendIO(dst []span.Dir, it IterVec) (_ []span.Dir, ok bool) {
	for i := 0; i < a.NumOperands(); i++ {
		o := a.Operand(i)
		s := span.Span{Addr: o.Addr + phys.Addr(o.Strides.Offset(it)), Bytes: o.Bytes()}
		if s.Bytes <= 0 {
			continue
		}
		if s.End() < s.Addr {
			return dst, false
		}
		if o.Read {
			dst = append(dst, span.Dir{Span: s})
		}
		if o.Write {
			dst = append(dst, span.Dir{Span: s, Write: true})
		}
	}
	return dst, true
}
