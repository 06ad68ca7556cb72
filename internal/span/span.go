// Package span is the one byte-range vocabulary of the stack: a half-open
// physical range, its directional form, the any-overlap test between two
// lists of either, the sorted merged set the runtime tracks initialized
// memory in, and the strided form a LOOP descriptor declares an operand in
// (strided.go): a directional span at iteration zero with a byte stride per
// level, placed at one iteration by At and over the whole nest, in checked
// arithmetic, by Extent. The accelerator layer (footprints, dependence edges,
// the nest judge, fusion extents, out-of-core extents, wave footprints), the
// static verifier and the runtime's admission control all speak these types.
package span

import (
	"fmt"
	"sort"

	"mealib/internal/phys"
	"mealib/internal/units"
)

// Span is a half-open byte range [Addr, Addr+Bytes) in the physical space.
type Span struct {
	Addr  phys.Addr
	Bytes units.Bytes
}

// End returns the first address past the span.
func (s Span) End() phys.Addr { return s.Addr + phys.Addr(s.Bytes) }

// Overlaps reports whether the two spans share at least one byte.
func (s Span) Overlaps(o Span) bool {
	if s.Bytes <= 0 || o.Bytes <= 0 {
		return false
	}
	return s.Addr < o.End() && o.Addr < s.End()
}

// String renders the span.
func (s Span) String() string {
	return fmt.Sprintf("[%v,+%v)", s.Addr, s.Bytes)
}

// Dir is a span with the direction it is accessed in.
type Dir struct {
	Span
	Write bool
}

func (s Span) dir() Dir { return Dir{Span: s, Write: true} }
func (d Dir) dir() Dir  { return d }

// ranged is a list element of Overlap: a plain Span collides with anything
// it overlaps; a Dir only when at least one side of the pair writes.
type ranged interface {
	Span | Dir
	dir() Dir
}

// Overlap reports whether any element of a collides with any element of b:
// the two share a byte and, where both sides are directional, at least one
// of them writes.
func Overlap[A, B ranged](a []A, b []B) bool {
	for _, x := range a {
		xd := x.dir()
		for _, y := range b {
			yd := y.dir()
			if (xd.Write || yd.Write) && xd.Span.Overlaps(yd.Span) {
				return true
			}
		}
	}
	return false
}

// Conflict reports a dependence between two operations a and b, each given
// as the spans it writes and the spans it reads: a write/write, write/read or
// read/write overlap. Two reads of the same bytes are not one.
func Conflict(aWrites, aReads, bWrites, bReads []Span) bool {
	return Overlap(aWrites, bWrites) || Overlap(aWrites, bReads) || Overlap(aReads, bWrites)
}

// Set maintains byte ranges as a sorted, pairwise disjoint, non-adjacent
// list. Insertion merges with every overlapping or adjacent neighbour, so
// scattered writes coalesce instead of growing the set unboundedly, and a
// walk over the set visits the genuinely distinct live regions — not the
// whole insertion history.
type Set struct {
	spans []Span
}

// Add inserts a span, merging overlaps and adjacencies. Amortised cost is
// O(log n) search plus the splice; repeated streaming stores into the same
// region stay at a single entry.
func (ss *Set) Add(s Span) {
	if s.Bytes <= 0 {
		return
	}
	start, end := s.Addr, s.End()
	// First existing span whose end reaches start (merge candidates begin
	// here; adjacency counts, hence >=).
	i := sort.Search(len(ss.spans), func(k int) bool { return ss.spans[k].End() >= start })
	j := i
	for j < len(ss.spans) && ss.spans[j].Addr <= end {
		sp := ss.spans[j]
		if sp.Addr < start {
			start = sp.Addr
		}
		if e := sp.End(); e > end {
			end = e
		}
		j++
	}
	merged := Span{Addr: start, Bytes: units.Bytes(end - start)}
	if i == j {
		ss.spans = append(ss.spans, Span{})
		copy(ss.spans[i+1:], ss.spans[i:])
		ss.spans[i] = merged
		return
	}
	ss.spans[i] = merged
	ss.spans = append(ss.spans[:i+1], ss.spans[j:]...)
}

// Sub removes a span from the set, trimming partial overlaps and splitting
// any interval the removal lands inside. Freeing a buffer uses this so the
// read-before-write verifier treats a later allocation of the same physical
// range as virgin memory again.
func (ss *Set) Sub(s Span) {
	if s.Bytes <= 0 {
		return
	}
	start, end := s.Addr, s.End()
	// First existing span whose end lies strictly past start (adjacency does
	// not overlap for removal, hence >).
	i := sort.Search(len(ss.spans), func(k int) bool { return ss.spans[k].End() > start })
	j := i
	var keep []Span
	for j < len(ss.spans) && ss.spans[j].Addr < end {
		sp := ss.spans[j]
		if sp.Addr < start {
			keep = append(keep, Span{Addr: sp.Addr, Bytes: units.Bytes(start - sp.Addr)})
		}
		if e := sp.End(); e > end {
			keep = append(keep, Span{Addr: end, Bytes: units.Bytes(e - end)})
		}
		j++
	}
	if i == j {
		return
	}
	ss.spans = append(ss.spans[:i], append(keep, ss.spans[j:]...)...)
}

// Overlaps reports whether any member of the set shares a byte with s: a
// binary search for the first member ending past s.Addr, the only one that can.
func (ss *Set) Overlaps(s Span) bool {
	i := sort.Search(len(ss.spans), func(k int) bool { return ss.spans[k].End() > s.Addr })
	return i < len(ss.spans) && ss.spans[i].Overlaps(s)
}

// All returns the merged intervals in address order. The slice aliases the
// set; callers must not retain it across Add or Sub calls.
func (ss *Set) All() []Span { return ss.spans }
