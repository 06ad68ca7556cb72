package accel

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Descriptor fusion: a compile pass over the plan IR that merges adjacent
// producer→consumer passes into single chained passes, so the intermediate
// buffer lives in tile-local scratch (charged to the NoC by Layer.price) instead
// of round-tripping through DRAM between launches of the two datapaths.
//
// A pair of adjacent passes in the same scope (both top-level, or both in
// the same LOOP body) fuses when:
//
//  1. Handoff: the producer pass's last comp writes exactly the span the
//     consumer pass's first comp reads at every iteration of the surrounding
//     nest ("consumed whole").
//  2. No WAR hazard: no comp of the consumer pass writes memory any comp of
//     the producer pass reads (the chained datapath streams concurrently;
//     this mirrors the in-pass rule the tdlcheck verifier enforces).
//  3. Single consumer: no other comp anywhere in the descriptor touches the
//     intermediate's whole-loop extent — a second reader needs the DRAM
//     copy, so multi-consumer intermediates are never fused.
//  4. Capacity: the per-iteration handoff bytes of the merged pass fit the
//     aggregate tile-local memory. A chain that exceeds it falls back to
//     DRAM (the pair stays unfused) and is counted as a fusion spill.
//
// Every "for all iterations" property is decided exactly from the comps'
// span.Strided lists: two spans coincide at every iteration iff they agree
// at iteration zero and advance together, and a span's whole-loop extent is
// its Extent. Fusion never changes functional execution:
// the comps still run in program order against the space and the
// intermediate is still materialised, so fused and unfused runs are
// bit-identical; only the model (time, energy, DRAM traffic) and the plan
// shape (fewer, wider nodes) change.

// FusedGroup describes one applied fusion: a run of adjacent passes merged
// into a single chained pass.
type FusedGroup struct {
	// FirstPass is the program-order index (counting every pass, top-level
	// and loop-body alike) of the group's first original pass.
	FirstPass int
	// Passes is how many original passes the group merged.
	Passes int
	// Ops are the accelerator mnemonics of the fused chain, in order.
	Ops []string
	// HandoffBytes is the per-iteration intermediate traffic the group keeps
	// in tile-local scratch (the sum over the group's producer→consumer
	// links).
	HandoffBytes units.Bytes
	// Iters is the surrounding loop trip count (1 for top-level groups):
	// the group elides 2*HandoffBytes*Iters bytes of DRAM traffic per
	// launch (the producer's store plus the consumer's load).
	Iters int64
}

// planSegment is one scope of a descriptor (descriptor.Scope: a run of
// consecutive top-level passes, or one LOOP nest with its body passes), with
// what the layer derives from it.
type planSegment struct {
	loop   bool
	counts descriptor.LoopCounts
	// passes are the scope's, until fusion merges adjacent ones.
	passes [][]descriptor.Comp
	// firstPass is the program-order index of the scope's first pass.
	firstPass int
	// tmpl holds one template per (fused) pass, and nest the verdict on an
	// expanded LOOP of more than one iteration (template.go).
	tmpl []nodeTemplate
	nest *nest
}

// segmentsOf reads the descriptor's scopes into segments.
func segmentsOf(d *descriptor.Descriptor) ([]planSegment, error) {
	scopes, err := d.Scopes()
	if err != nil {
		return nil, err
	}
	segs := make([]planSegment, len(scopes))
	for i, sc := range scopes {
		segs[i] = planSegment{loop: sc.Loop, counts: sc.Counts, passes: sc.Passes, firstPass: sc.FirstPass}
	}
	return segs, nil
}

// compExtents appends a bound comp's directional spans over its whole
// loop-count box to dst: each span's Extent, in checked arithmetic. ok is
// false when one overflows.
func compExtents(dst []span.Dir, a Args, counts descriptor.LoopCounts) (_ []span.Dir, ok bool) {
	var buf spanBuf
	for _, s := range a.appendSpans(buf[:0]) {
		ext, ok := s.Extent(counts)
		if !ok {
			return dst, false
		}
		dst = append(dst, span.Dir{Span: ext, Write: s.Write})
	}
	return dst, true
}

// linkFault is why two adjacent passes are no producer→consumer link: a
// format of the producer's and the consumer's op. "" is a link.
type linkFault string

const (
	linkManyOutputs linkFault = "%[1]v writes more than one operand"
	linkNoOutput    linkFault = "%[1]v produces no output span"
	linkNotWhole    linkFault = "%[1]v output is not consumed whole by %[2]v"
)

// handoffOf finds the producer→consumer handoff from prod, the last comp of a
// pass, to cons, the first of the next: a span cons reads that equals the one
// prod writes at every iteration — the same iteration-zero span, advancing
// together (span.Strides.Together). Returns the per-iteration handoff size,
// or why there is none.
func handoffOf(prod, cons Args, counts descriptor.LoopCounts) (units.Bytes, linkFault) {
	// The producer's output is its written span (every accelerator writes
	// exactly one operand).
	var pbuf, cbuf spanBuf
	var w *span.Strided
	for ps, i := prod.appendSpans(pbuf[:0]), 0; i < len(ps); i++ {
		switch {
		case !ps[i].Write:
		case w != nil:
			return 0, linkManyOutputs
		default:
			w = &ps[i]
		}
	}
	if w == nil {
		return 0, linkNoOutput
	}
	for _, r := range cons.appendSpans(cbuf[:0]) {
		if !r.Write && r.Span == w.Span && r.Strides.Together(w.Strides, counts) {
			return w.Bytes, ""
		}
	}
	return 0, linkNotWhole
}

// warHazard reports whether any comp of pass b writes memory any comp of
// pass a reads, judged on whole-box extents (conservative): the fused
// datapath streams the stages concurrently, so a consumer-side write over a
// producer-side read would race in hardware. exts maps global comp index to
// extents.
func warHazard(a, b []descriptor.Comp, exts [][]span.Dir) bool {
	for _, bc := range b {
		for _, w := range exts[bc.Index] {
			if !w.Write {
				continue
			}
			for _, ac := range a {
				for _, r := range exts[ac.Index] {
					if !r.Write && r.Overlaps(w.Span) {
						return true
					}
				}
			}
		}
	}
	return false
}

// singleConsumer reports whether the handoff extent is untouched by every
// comp other than the producer and consumer. A second toucher means the
// intermediate must exist in DRAM after all.
func singleConsumer(handoff span.Span, producer, consumer int, exts [][]span.Dir) bool {
	for id, spans := range exts {
		if id != producer && id != consumer && span.Overlap([]span.Span{handoff}, spans) {
			return false
		}
	}
	return true
}

// fuseResult is the outcome of the fusion pass over one descriptor.
type fuseResult struct {
	groups []FusedGroup
	// spills counts adjacent producer→consumer pairs left unfused because
	// the handoff would overflow the tile-local memories.
	spills int
	// scratch is the peak per-iteration scratch any fused pass occupies.
	scratch units.Bytes
}

// fuseSegments merges adjacent fusible passes within each segment, in
// place. lmCap is the aggregate tile-local capacity the chained
// intermediates of one pass may occupy.
func fuseSegments(segs []planSegment, lmCap units.Bytes) fuseResult {
	var res fuseResult
	// Liveness needs every comp bound and its whole-box extents, across all
	// segments, in one slab; a descriptor with no two adjacent passes fuses
	// nothing.
	comps, nspans, adjacent := 0, 0, false
	for _, seg := range segs {
		c, n := sizeOf(seg.passes)
		comps, nspans, adjacent = comps+c, nspans+n, adjacent || len(seg.passes) > 1
	}
	if !adjacent {
		return res
	}
	bound, exts, slab := make([]Args, comps), make([][]span.Dir, comps), make([]span.Dir, 0, nspans)
	for _, seg := range segs {
		for _, pass := range seg.passes {
			for _, in := range pass {
				a, err := Bind(in.Op, in.Params)
				at, ok := len(slab), err == nil
				if ok {
					slab, ok = compExtents(slab, a, seg.counts)
				}
				if !ok {
					// One unresolvable comp blinds the liveness scan for the
					// whole descriptor: fuse nothing.
					return fuseResult{}
				}
				bound[in.Index], exts[in.Index] = a, slab[at:len(slab):len(slab)]
			}
		}
	}
	for si := range segs {
		seg := &segs[si]
		if len(seg.passes) < 2 {
			continue
		}
		iters := int64(1)
		if seg.loop {
			iters = seg.counts.Total()
		}
		// The merged passes overwrite the segment's in place: the output
		// never outruns the input.
		passes := seg.passes[:0]
		last := 0 // original program-order index of the last output pass
		var group *FusedGroup
		var groupScratch units.Bytes
		flush := func() {
			if group != nil && group.Passes > 1 {
				res.groups = append(res.groups, *group)
				if groupScratch > res.scratch {
					res.scratch = groupScratch
				}
			}
			group = nil
			groupScratch = 0
		}
		for pi, pass := range seg.passes {
			if len(passes) > 0 {
				prev := passes[len(passes)-1]
				producer, consumer := prev[len(prev)-1].Index, pass[0].Index
				hb, fault := handoffOf(bound[producer], bound[consumer], seg.counts)
				switch {
				case fault != "":
					// No producer→consumer relationship: fall through.
				case groupScratch+hb > lmCap:
					res.spills++
				case warHazard(prev, pass, exts):
					// Unsafe to stream concurrently: keep the DRAM boundary.
				default:
					// The handoff's whole-box extent is the producer's write
					// extent (the consumer's matched read equals it at every
					// iteration by construction).
					var handoff span.Span
					for _, e := range exts[producer] {
						if e.Write {
							handoff = e.Span
						}
					}
					if !singleConsumer(handoff, producer, consumer, exts) {
						break
					}
					passes[len(passes)-1] = append(append([]descriptor.Comp(nil), prev...), pass...)
					if group == nil {
						group = &FusedGroup{
							FirstPass: last,
							Passes:    1,
							Iters:     iters,
							Ops:       opsOf(prev),
						}
					}
					group.Passes++
					group.Ops = append(group.Ops, opsOf(pass)...)
					group.HandoffBytes += hb
					groupScratch += hb
					continue
				}
			}
			flush()
			passes = append(passes, pass)
			last = seg.firstPass + pi
		}
		flush()
		seg.passes = passes
	}
	return res
}

// opsOf lists the mnemonics of a pass.
func opsOf(pass []descriptor.Comp) []string {
	out := make([]string, len(pass))
	for i, in := range pass {
		out[i] = in.Op.String()
	}
	return out
}

// FusionGroups runs the fusion analysis over a descriptor and reports the
// pass groups that would merge under cfg (capacity from LMBytes*Tiles),
// without building or executing a plan. The TDL compiler path uses this to
// apply the identical merges to the source program, so descriptor-level and
// plan-level fusion can never disagree.
func FusionGroups(d *descriptor.Descriptor, cfg *Config) ([]FusedGroup, error) {
	segs, err := segmentsOf(d)
	if err != nil {
		return nil, err
	}
	res := fuseSegments(segs, cfg.LMBytes*units.Bytes(cfg.Tiles))
	return res.groups, nil
}

// ChainComp is one stage of a candidate fused chain (builder API surface).
type ChainComp struct {
	Op     descriptor.OpCode
	Params descriptor.Params
}

// VerifyChain checks that comps form a legal fused chain over the loop
// counts: every adjacent pair must have an exact producer→consumer handoff,
// no later stage may write memory an earlier stage reads, and the summed
// per-iteration handoffs must fit the aggregate tile-local capacity lmCap.
// It returns the total per-iteration handoff bytes on success.
func VerifyChain(comps []ChainComp, counts descriptor.LoopCounts, lmCap units.Bytes) (units.Bytes, error) {
	if len(comps) < 2 {
		return 0, fmt.Errorf("accel: chain needs at least two comps, got %d", len(comps))
	}
	pass := make([]descriptor.Comp, len(comps))
	bound, exts := make([]Args, len(comps)), make([][]span.Dir, len(comps))
	for i, c := range comps {
		pass[i] = descriptor.Comp{Op: c.Op, Params: c.Params, Index: i}
		a, err := Bind(c.Op, c.Params)
		ok := err == nil
		if ok {
			exts[i], ok = compExtents(nil, a, counts)
		}
		if !ok {
			return 0, fmt.Errorf("accel: chain stage %d (%v): unresolvable operand spans", i, c.Op)
		}
		bound[i] = a
	}
	var total units.Bytes
	for i := 0; i+1 < len(pass); i++ {
		hb, fault := handoffOf(bound[i], bound[i+1], counts)
		if fault != "" {
			return 0, fmt.Errorf("accel: chain stages %d→%d: %w", i, i+1, fmt.Errorf("accel: fuse: "+string(fault), comps[i].Op, comps[i+1].Op))
		}
		total += hb
	}
	if total > lmCap {
		return 0, fmt.Errorf("accel: chain handoff %v exceeds tile-local capacity %v", total, lmCap)
	}
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			if warHazard(pass[i:i+1], pass[j:j+1], exts) {
				return 0, fmt.Errorf("accel: chain stage %d (%v) writes memory stage %d (%v) reads",
					j, comps[j].Op, i, comps[i].Op)
			}
		}
	}
	return total, nil
}
