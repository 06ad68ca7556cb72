package accel

import (
	"fmt"
	"math/bits"
	"strings"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Nest templates. The decode unit configures a LOOP body once and then only
// advances addresses per iteration (paper §2.2); so do the lowering and the
// engine. Layer.lower gives every pass of every segment a template of what
// its instances share, and every expanded LOOP of more than one iteration a
// verdict on whether two of its iterations can conflict. A plan node is a
// range (template, first iteration, count), which runs each comp decoded
// once (ranged); a top-level pass is a range of one. Templates are built once
// per compiled Program (program.go), in time linear in the body, and no run
// writes to them.

// stridedSpan is one directional span of a pass at iteration zero with the
// per-level advance of its operand.
type stridedSpan struct {
	span.Dir
	strides Strides
}

// at returns the span at iteration it; ok is false when it wraps the
// address space there and the footprint cannot be trusted.
func (s *stridedSpan) at(it IterVec) (_ span.Dir, ok bool) {
	d := s.Dir
	d.Addr += phys.Addr(s.strides.Offset(it))
	return d, d.End() >= d.Addr
}

// opCost is one accelerator's share of a node's sub-report.
type opCost struct {
	op descriptor.OpCode
	OpStats
}

// nodeTemplate is what every instance of one pass of a segment shares.
type nodeTemplate struct {
	// comps are the pass's comps, bound once: all of them, or with barrier
	// set those before the first that does not decode, whose error is err.
	// The instances of a barrier conflict with everything.
	comps   []Args
	barrier bool
	// spans are the pass's directional spans at iteration zero.
	spans []stridedSpan
	// dispatch charges the per-iteration decode-unit dispatch latency (the
	// last pass of a LOOP body); scale is the trip count the one node of a
	// model-collapsed LOOP stands for, else 1; counts are the segment's.
	dispatch bool
	scale    int64
	counts   descriptor.LoopCounts
	// name labels the node's trace span: the whole chain, so fusion shows.
	name string
	// The node's sub-report, priced once (no input of the model reads the
	// iteration vector), its per-accelerator stats in op-table order. err is
	// what binding or pricing failed with; an instance returns it once comps
	// have run.
	time                       units.Seconds
	energy                     units.Joules
	ncomps                     int64
	noc, spill, remote, elided units.Bytes
	ops                        []opCost
	err                        error
}

// nest is what the lowering knows about an expanded LOOP of more than one
// iteration as a whole.
type nest struct {
	// spans are the body's spans, pass after pass.
	spans []stridedSpan
	// rule says why two iterations may conflict (ruleNone: they cannot) and
	// a and b index the spans it is about.
	rule blockRule
	a, b int
	// deps[pass] are the earlier passes of its own iteration that body pass
	// `pass` of a conflict-free nest must follow (nil for a one-pass body),
	// and depth[pass] the wave they put it in.
	deps  [][]int32
	depth []int32
}

// buildTemplates binds, resolves and prices every pass of the segment once,
// out of one slab per kind, and judges an expanded LOOP.
func (l *Layer) buildTemplates(seg *planSegment, mode planMode) {
	comps, nspans := 0, 0
	for _, pass := range seg.passes {
		comps += len(pass)
		for _, in := range pass {
			if spec, err := specOf(in.Op); err == nil {
				nspans += spec.maxSpans
			}
		}
	}
	seg.tmpl = make([]nodeTemplate, len(seg.passes))
	bound, ops := make([]Args, comps), make([]opCost, comps)
	spans := make([]stridedSpan, 0, nspans)
	for pi, pass := range seg.passes {
		t := &seg.tmpl[pi]
		t.scale, t.dispatch, t.counts = 1, seg.loop && pi == len(seg.passes)-1, seg.counts
		if seg.loop && mode == planCollapse {
			t.scale = seg.counts.Total()
		}
		t.comps, bound = bound[:0:len(pass)], bound[len(pass):]
		t.ops, ops = ops[:0:len(pass)], ops[len(pass):]
		if l.tr != nil {
			t.name = strings.Join(opsOf(pass), "+")
		}
		at := len(spans)
		for _, in := range pass {
			if a, err := Bind(in.Op, in.Params); err != nil && !t.barrier {
				t.barrier, t.err = true, err
			} else if !t.barrier {
				t.comps = append(t.comps, a)
				spans = a.appendStrided(spans)
			}
		}
		if t.barrier {
			spans = spans[:at]
		} else {
			l.price(t, pass)
		}
		t.spans = spans[at:len(spans):len(spans)]
	}
	if seg.loop && mode == planExpand && seg.counts.Total() > 1 {
		seg.nest = &nest{spans: spans}
		seg.nest.judge(seg.tmpl, seg.counts)
	}
}

// blockRule is why a LOOP's iterations stay on the dependence scoreboard.
type blockRule uint8

const (
	ruleNone blockRule = iota // conflict-free
	ruleBarrier
	ruleOverflow
	ruleStrides
	ruleTiling
)

var ruleText = [...]string{
	ruleBarrier:  "a body pass has operands that cannot be resolved",
	ruleOverflow: "its extent over the nest overflows the address arithmetic",
	ruleStrides:  "they share bytes one of them writes, and advance by different strides",
	ruleTiling:   "written bytes, and strides (zero, or too small) that do not carry one iteration clear of the others",
}

// why renders the verdict on a blocked nest: the spans and the rule.
func (n *nest) why() string {
	switch {
	case n.rule == ruleBarrier:
		return ruleText[n.rule]
	case n.a == n.b:
		return fmt.Sprintf("%v: %s", n.spans[n.a].Span, ruleText[n.rule])
	}
	return fmt.Sprintf("%v and %v: %s", n.spans[n.a].Span, n.spans[n.b].Span, ruleText[n.rule])
}

// judge decides from the body's iteration-zero spans and strides alone
// whether two distinct iterations of the nest can conflict. It is sufficient,
// never optimistic: what it cannot prove is left to the scoreboard.
//
// Two spans, one of them written, whose whole-nest extents overlap (a span
// and itself included) must advance by the same stride vector, so that they
// move as one block, their iteration-zero hull H; and every iterating level's
// |stride| must be at least |H| plus the farthest the levels of smaller
// |stride| can move the block, the sum of their |stride|*(count-1). Two
// iteration vectors that differ then land at least |H| apart: the level of
// largest |stride| they differ in outruns whatever the others add. Spans
// whose extents are disjoint never meet, and reads do not conflict. The same
// facts fix the edges inside an iteration, so a conflict-free nest of several
// passes takes them from iteration zero.
func (n *nest) judge(tmpl []nodeTemplate, counts descriptor.LoopCounts) {
	for pi := range tmpl {
		if tmpl[pi].barrier {
			n.rule = ruleBarrier
			return
		}
	}
	ext := make([][2]uint64, len(n.spans))
	for i := range n.spans {
		if n.a, n.b = i, i; !nestExtent(&n.spans[i], counts, &ext[i]) {
			n.rule = ruleOverflow
			return
		}
	}
	for i := range n.spans {
		for j := i; j < len(n.spans); j++ {
			a, b := &n.spans[i], &n.spans[j]
			if !a.Write && !b.Write || ext[i][0] >= ext[j][1] || ext[j][0] >= ext[i][1] {
				continue
			}
			n.a, n.b = i, j
			for l, c := range counts {
				if c > 1 && a.strides[l] != b.strides[l] {
					n.rule = ruleStrides
					return
				}
			}
			if !tiles(a.strides, counts, uint64(max(a.End(), b.End())-min(a.Addr, b.Addr))) {
				n.rule = ruleTiling
				return
			}
		}
	}
	n.depth = make([]int32, len(tmpl))
	if len(tmpl) > 1 {
		// The dependence scoreboard over iteration zero.
		var p plan
		for pi := range tmpl {
			p.addNode(planNode{tmpl: &tmpl[pi], n: 1})
		}
		p.buildEdges()
		p.buildWaves()
		n.deps = make([][]int32, len(tmpl))
		for pi := range n.deps {
			n.deps[pi], n.depth[pi] = p.depsOf(int32(pi)), p.nodes[pi].wave
		}
	}
}

// reach is how far a level of count iterations moves an operand over the
// nest, |stride|*(count-1); ok is false when that overflows.
func reach(stride int64, count uint32) (_ uint64, ok bool) {
	if count <= 1 {
		return 0, true
	}
	over, d := bits.Mul64(magnitude(stride), uint64(count-1))
	return d, over == 0
}

func magnitude(v int64) uint64 {
	if v < 0 {
		return -uint64(v)
	}
	return uint64(v)
}

// nestExtent is Strides.Extend in checked arithmetic: the bytes
// [ext[0], ext[1]) the span covers over every iteration of the nest.
func nestExtent(s *stridedSpan, counts descriptor.LoopCounts, ext *[2]uint64) bool {
	lo, hi := uint64(s.Addr), uint64(s.End())
	ok := hi >= lo
	for l, c := range counts {
		d, fits := reach(s.strides[l], c)
		if s.strides[l] < 0 {
			ok, lo = ok && fits && d <= lo, lo-d
		} else {
			ok, hi = ok && fits && hi+d >= hi, hi+d
		}
	}
	ext[0], ext[1] = lo, hi
	return ok
}

// tiles reports whether iterations advancing by strides carry a block of
// hull bytes clear of every other iteration's (see judge).
func tiles(strides Strides, counts descriptor.LoopCounts, hull uint64) bool {
	for l, c := range counts {
		need := hull
		for m, cm := range counts {
			// m is below l: a smaller |stride|, ties broken by level.
			if sm, sl := magnitude(strides[m]), magnitude(strides[l]); sm < sl || sm == sl && m < l {
				d, ok := reach(strides[m], cm)
				if need += d; !ok || need < d {
					return false
				}
			}
		}
		if c > 1 && magnitude(strides[l]) < need {
			return false
		}
	}
	return true
}
