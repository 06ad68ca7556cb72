package accel

import (
	"sort"

	"mealib/internal/descriptor"
	"mealib/internal/span"
)

// Iteration-independence analysis for hardware LOOP nests.
//
// The decode unit dispatches LOOP iterations round-robin over the tiles
// (paper §2.2); the hardware can do that because the compiler only emits a
// LOOP when the OpenMP source proved the iterations independent. The
// functional interpreter re-derives that guarantee before fanning out: it
// materialises every iteration's read and write byte spans (the same affine
// base + Σ stride·index arithmetic the decode unit performs) and sweeps
// them for a cross-iteration conflict — a write from one iteration
// overlapping any span of another. Overlap, an undecodable comp, or an
// event count past indepMaxEvents all fall back to serial execution, so
// parallelism is never a correctness gamble.

// indepMaxEvents caps the spans the checker is willing to materialise;
// beyond it the loop runs serially rather than spend unbounded memory on
// the analysis (1M events ≈ 48 MB, checked in well under the time the
// loop body itself will take at that scale).
const indepMaxEvents = 1 << 20

// iterEvent is one span tagged with the iteration that owns it.
type iterEvent struct {
	start, end uint64 // [start, end) physical bytes
	iter       int64
	write      bool
}

// top2 tracks, over the events seen so far, the maximum span end (end1,
// owned by iter1) and the maximum end among events owned by any OTHER
// iteration (end2). That is enough to answer "does any already-seen event
// from a different iteration reach past this start?" in O(1): if the
// global max is another iteration's, compare against it; if the global max
// is our own, compare against end2. end2 may over-approximate after the
// leader changes (events folded into it can share the new leader's
// iteration), which can only produce a false conflict — a safe,
// serial-fallback direction.
type top2 struct {
	end1  uint64
	iter1 int64
	end2  uint64
}

func newTop2() top2 { return top2{iter1: -1} }

func (t *top2) add(end uint64, iter int64) {
	switch {
	case iter == t.iter1:
		if end > t.end1 {
			t.end1 = end
		}
	case end >= t.end1:
		if t.iter1 >= 0 && t.end1 > t.end2 {
			t.end2 = t.end1
		}
		t.end1, t.iter1 = end, iter
	default:
		if end > t.end2 {
			t.end2 = end
		}
	}
}

// reaches reports whether a seen event from an iteration other than iter
// extends past start.
func (t *top2) reaches(start uint64, iter int64) bool {
	if t.iter1 < 0 {
		return false
	}
	if t.iter1 != iter {
		return t.end1 > start
	}
	return t.end2 > start
}

// loopIndependent reports whether every pair of distinct iterations of the
// loop nest touches disjoint memory (same-iteration overlap is fine — one
// iteration's comps run in order on one tile). Any failure to resolve
// spans returns false.
func loopIndependent(counts descriptor.LoopCounts, passes [][]passInstr, iters int64) bool {
	spansPerIter, perComp := 0, maxOpSpans()
	for _, p := range passes {
		spansPerIter += len(p) * perComp
	}
	if spansPerIter == 0 || iters*int64(spansPerIter) > indepMaxEvents {
		return false
	}
	events := make([]iterEvent, 0, iters*int64(spansPerIter))
	spans := make([]span.Dir, 0, spansPerIter)
	for idx := int64(0); idx < iters; idx++ {
		it := iterVecAt(counts, idx)
		spans = spans[:0]
		for _, pass := range passes {
			for _, pi := range pass {
				a, err := Bind(pi.op, pi.params)
				if err != nil {
					return false
				}
				ok := false
				if spans, ok = a.appendIO(spans, it); !ok { // address wrap: unresolvable
					return false
				}
			}
		}
		for _, sp := range spans {
			events = append(events, iterEvent{start: uint64(sp.Addr), end: uint64(sp.End()), iter: idx, write: sp.Write})
		}
	}
	sort.Slice(events, func(i, j int) bool { return events[i].start < events[j].start })
	reads, writes := newTop2(), newTop2()
	for _, e := range events {
		// A write conflicts with any prior span of another iteration still
		// covering e.start; a read only conflicts with such a write.
		if writes.reaches(e.start, e.iter) {
			return false
		}
		if e.write {
			if reads.reaches(e.start, e.iter) {
				return false
			}
			writes.add(e.end, e.iter)
		} else {
			reads.add(e.end, e.iter)
		}
	}
	return true
}
