package span

import (
	"math"
	"math/bits"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Strides holds the per-level byte strides of one operand across a hardware
// loop nest (descriptor.MaxLoopLevels levels, outermost first); zero outside
// a LOOP.
type Strides [descriptor.MaxLoopLevels]int64

// IterVec is the current index of each loop-nest level, outermost first.
type IterVec [descriptor.MaxLoopLevels]int64

// Offset returns the byte offset of iteration vector it, in machine
// arithmetic.
func (s Strides) Offset(it IterVec) int64 {
	var off int64
	for l := range s {
		off += s[l] * it[l]
	}
	return off
}

// Mag returns |s[l]|, the bytes one iteration of level l moves the operand;
// exact for every stride, MinInt64 included.
func (s Strides) Mag(l int) uint64 {
	if s[l] < 0 {
		return -uint64(s[l])
	}
	return uint64(s[l])
}

// Reach returns how far count iterations of level l move the operand,
// |s[l]|*(count-1); ok is false when that does not fit 64 bits.
func (s Strides) Reach(l int, count uint32) (_ uint64, ok bool) {
	if count <= 1 {
		return 0, true
	}
	over, d := bits.Mul64(s.Mag(l), uint64(count-1))
	return d, over == 0
}

// Together reports whether two accesses advance together over a nest of
// counts: by the same stride on every level that iterates.
func (s Strides) Together(o Strides, counts descriptor.LoopCounts) bool {
	for l, c := range counts {
		if c > 1 && s[l] != o[l] {
			return false
		}
	}
	return true
}

// Strided is one directional span of an operand at iteration zero of a LOOP
// nest, with the operand's per-level advance: the affine access a descriptor
// declares, which places the span at every iteration.
type Strided struct {
	Dir
	Strides Strides
}

// At returns the span at iteration it; ok is false when its end wraps the
// address space there and the span cannot be trusted.
func (s *Strided) At(it IterVec) (_ Dir, ok bool) {
	d := s.Dir
	d.Addr += phys.Addr(s.Strides.Offset(it))
	return d, d.End() >= d.Addr
}

// Extent returns the bytes the span covers over every iteration of a nest of
// counts (a count of 0 is 1): the iteration-zero span stretched by each
// level's reach, downwards for a negative stride. The arithmetic is checked:
// ok is true exactly when every iteration's span lies in [0, 2^64) and the
// extent's size fits 63 bits, and the span means nothing otherwise.
func (s *Strided) Extent(counts descriptor.LoopCounts) (_ Span, ok bool) {
	lo, size := s.Addr, uint64(s.Bytes)
	ok = true
	for l, c := range counts {
		d, fits := s.Strides.Reach(l, c)
		var carry uint64
		size, carry = bits.Add64(size, d, 0)
		if ok = ok && fits && carry == 0; s.Strides[l] < 0 {
			lo -= phys.Addr(d)
		}
	}
	// A start below zero wraps lo, and the end then lands past 2^64 too.
	_, carry := bits.Add64(uint64(lo), size, 0)
	return Span{Addr: lo, Bytes: units.Bytes(size)}, ok && carry == 0 && size <= math.MaxInt64
}
