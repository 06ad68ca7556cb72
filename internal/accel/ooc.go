package accel

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Out-of-core plan lowering (ROADMAP "Out-of-core execution"): a descriptor
// whose operands live in the host-backed window — addresses no accelerator
// can reach — is split into a schedule of chunked launches whose window
// spans are relocated into a double-buffered staging region carved from
// stack memory. The split reuses the same span machinery the scheduler and
// fusion passes rely on for legality: every relocation is justified by the
// comp's own op-table operand extents, and a chunk's rebased descriptor is an
// ordinary descriptor the layer runs unmodified (fusion, wave scheduling
// and capacity checks included). The runtime (internal/mealibrt/ooc.go)
// drives the schedule: stage in, execute, write back, with the next chunk's
// stage-in prefetched under the current chunk's execution when legal.

// ErrUnchunkable marks a descriptor the chunker cannot split: a single
// invocation's window footprint exceeds the staging half and the op has no
// exact split (reductions like DOT, global-access ops like SPMV/RESHP, and
// boundary-coupled RESMP cannot be divided without changing results
// bit-for-bit). Growing the staging region is the only cure.
var ErrUnchunkable = errors.New("accel: descriptor cannot be chunked into the staging region")

// oocAlign is the staging-layout alignment of each relocated extent.
const oocAlign = 64

// oocMaxUnits bounds how many schedulable units (loop iterations × passes)
// the chunker will materialise; descriptors past it should use a bigger
// staging region rather than a million-entry schedule.
const oocMaxUnits = 1 << 20

// OOCExtent is one contiguous host-window byte range a chunk relocates into
// the staging region. Every extent is staged in before execution — even
// write-only ones, so stride gaps inside the extent carry the original host
// bytes back out unchanged — and extents the chunk writes are copied back
// after execution.
type OOCExtent struct {
	Host   phys.Addr
	Staged phys.Addr
	Bytes  units.Bytes
	// Out marks extents the chunk writes (copied back after execution).
	Out bool
}

// OOCChunk is one staged launch of the schedule.
type OOCChunk struct {
	// Desc is the rebased descriptor: the original comps of this chunk's
	// units with window addresses relocated into the staging half. Prog is
	// Desc compiled, once, for the layer that planned the schedule: the
	// driver installs its image in the plan's slot and runs it (RunProgram).
	Desc *descriptor.Descriptor
	Prog *Program
	// Extents are the relocations, sorted by host address.
	Extents []OOCExtent
	// Half selects which staging half the chunk occupies (ping-pong).
	Half int
	// Prefetchable reports that this chunk's stage-in touches no host range
	// the previous chunk writes back — so the stage-in may overlap the
	// previous chunk's execution and write-back.
	Prefetchable bool
	// StageInBytes and WriteBackBytes are the chunk's link traffic.
	StageInBytes, WriteBackBytes units.Bytes
}

// OOCSchedule is the chunked lowering of one out-of-core descriptor.
type OOCSchedule struct {
	Chunks []*OOCChunk
	// MaxDescBytes sizes the command-space slot the chunk descriptors are
	// encoded into (one slot, reused serially).
	MaxDescBytes units.Bytes
	// StageInBytes and WriteBackBytes total the link traffic.
	StageInBytes, WriteBackBytes units.Bytes
}

// StagingCost is the model time and energy of moving n bytes between host
// DRAM and the staging region over the host↔stack link (the same SerDes
// link remote-stack traffic crosses).
func (c *Config) StagingCost(n units.Bytes) (units.Seconds, units.Joules) {
	if n <= 0 || c.RemoteLinkBW <= 0 {
		return 0, 0
	}
	return c.RemoteLinkBW.Time(n), units.Joules(float64(n) * 8 * float64(c.ELinkBit))
}

// oocUnit is the smallest schedulable piece of the descriptor: one loop
// iteration's passes (params fully shifted to that iteration), or one
// top-level pass, or one split piece of an oversized comp.
type oocUnit struct {
	passes [][]descriptor.Comp
	// boxes are the host-window byte ranges the unit touches, merged, with
	// Write marking the ones it writes.
	boxes []span.Dir
}

// mergeBoxes normalises a box list: sorted by address, overlapping or
// adjacent boxes merged (Write flags OR — a merged extent is written if any
// part is).
func mergeBoxes(boxes []span.Dir) []span.Dir {
	if len(boxes) < 2 {
		return boxes
	}
	sort.Slice(boxes, func(i, j int) bool { return boxes[i].Addr < boxes[j].Addr })
	out := boxes[:1]
	for _, b := range boxes[1:] {
		cur := &out[len(out)-1]
		if b.Addr <= cur.End() {
			if b.End() > cur.End() {
				cur.Bytes = units.Bytes(b.End() - cur.Addr)
			}
			cur.Write = cur.Write || b.Write
			continue
		}
		out = append(out, b)
	}
	return out
}

// layoutBytes is the staging footprint of a box list (each extent aligned).
func layoutBytes(boxes []span.Dir) units.Bytes {
	var n units.Bytes
	for _, b := range boxes {
		n += (b.Bytes + oocAlign - 1) / oocAlign * oocAlign
	}
	return n
}

// shiftedParams folds the iteration vector into the comp's base addresses
// and zeroes the loop strides, producing the params of a standalone
// (top-level) pass equivalent to this iteration's invocation.
func shiftedParams(op descriptor.OpCode, p descriptor.Params, it IterVec) (descriptor.Params, error) {
	a, err := Bind(op, p)
	if err != nil {
		return nil, err
	}
	q := append(descriptor.Params(nil), p...)
	for f, off := range a.spec.strideOff {
		if off > 0 {
			q[f] = descriptor.AddrField(a.at(f, it))
			clear(q[off : off+descriptor.MaxLoopLevels])
		}
	}
	return q, nil
}

// rebaseComp relocates a comp's window addresses via mapAddr. Each operand
// is mapped with its full span so the relocation is rejected unless the
// whole access lands inside one staged extent.
func rebaseComp(op descriptor.OpCode, p descriptor.Params, mapAddr func(phys.Addr, units.Bytes) (phys.Addr, error)) (descriptor.Params, error) {
	a, err := Bind(op, p)
	if err != nil {
		return nil, err
	}
	q := append(descriptor.Params(nil), p...)
	for i := range a.spec.operands {
		o := a.Operand(i)
		addr, err := mapAddr(o.Addr, o.Bytes())
		if err != nil {
			return nil, err
		}
		q[a.spec.operands[i].addr] = descriptor.AddrField(addr)
	}
	return q, nil
}

// unitBoxes resolves the unit's window extents from its comps' directional
// spans at iteration zero (params are already shifted): their extents over
// no loop.
func unitBoxes(passes [][]descriptor.Comp, inWindow func(phys.Addr) bool) ([]span.Dir, error) {
	var boxes []span.Dir
	for _, pass := range passes {
		for _, pi := range pass {
			a, err := Bind(pi.Op, pi.Params)
			if err != nil {
				return nil, err
			}
			ok := false
			if boxes, ok = compExtents(boxes, a, descriptor.LoopCounts{}); !ok {
				return nil, fmt.Errorf("accel: ooc: %v operand wraps the address space", pi.Op)
			}
		}
	}
	return mergeBoxes(slices.DeleteFunc(boxes, func(b span.Dir) bool { return !inWindow(b.Addr) })), nil
}

// splitOversized divides a single-comp unit whose window footprint exceeds
// the budget into exact pieces along the op's chunk axis. Only ops with
// elementwise-independent outputs declare one; reductions and global-access
// ops return ErrUnchunkable.
func splitOversized(pi descriptor.Comp, unitBytes, budget units.Bytes) ([]descriptor.Params, error) {
	a, err := Bind(pi.Op, pi.Params)
	if err != nil {
		return nil, err
	}
	axis := a.spec.chunk
	if axis == nil {
		return nil, fmt.Errorf("%w: %v invocation footprint exceeds the staging half and the op has no exact split", ErrUnchunkable, pi.Op)
	}
	per, err := axis.per(a, max(2, int64((unitBytes+budget-1)/budget)), budget)
	if err != nil {
		return nil, err
	}
	var out []descriptor.Params
	for n, start := a.i(axis.count), int64(0); start < n; start += per {
		q := append(descriptor.Params(nil), pi.Params...)
		q[axis.count] = uint64(min(per, n-start))
		for i := range a.spec.operands {
			if o := &a.spec.operands[i]; o.step != nil {
				q[o.addr] += uint64(a.spec.elem(a) * o.step(a) * start)
			}
		}
		out = append(out, q)
	}
	return out, nil
}

// oocUnitsOf decomposes the descriptor into schedulable units: every loop
// iteration becomes a standalone unit with fully shifted params, every
// top-level pass a unit of its own, and oversized single-comp units are
// split into exact pieces that fit the budget.
func oocUnitsOf(d *descriptor.Descriptor, inWindow func(phys.Addr) bool, budget units.Bytes) ([]oocUnit, error) {
	segs, err := segmentsOf(d)
	if err != nil {
		return nil, err
	}
	var raw []oocUnit
	for _, seg := range segs {
		if !seg.loop {
			for _, pass := range seg.passes {
				raw = append(raw, oocUnit{passes: [][]descriptor.Comp{pass}})
			}
			continue
		}
		iters := seg.counts.Total()
		if int64(len(raw))+iters > oocMaxUnits {
			return nil, fmt.Errorf("%w: %d loop iterations exceed the chunker's %d-unit bound (grow the staging region)", ErrUnchunkable, iters, oocMaxUnits)
		}
		for idx := int64(0); idx < iters; idx++ {
			it := iterVecAt(seg.counts, idx)
			passes := make([][]descriptor.Comp, 0, len(seg.passes))
			for _, pass := range seg.passes {
				shifted := make([]descriptor.Comp, len(pass))
				for i, pi := range pass {
					p, err := shiftedParams(pi.Op, pi.Params, it)
					if err != nil {
						return nil, err
					}
					shifted[i] = descriptor.Comp{Op: pi.Op, Params: p}
				}
				passes = append(passes, shifted)
			}
			raw = append(raw, oocUnit{passes: passes})
		}
	}
	// Resolve window extents, splitting units the staging half cannot hold.
	var out []oocUnit
	for _, u := range raw {
		boxes, err := unitBoxes(u.passes, inWindow)
		if err != nil {
			return nil, err
		}
		if layoutBytes(boxes) <= budget {
			u.boxes = boxes
			out = append(out, u)
			continue
		}
		if len(u.passes) != 1 || len(u.passes[0]) != 1 {
			return nil, fmt.Errorf("%w: a chained pass's footprint (%v) exceeds the staging half (%v)", ErrUnchunkable, layoutBytes(boxes), budget)
		}
		pieces, err := splitOversized(u.passes[0][0], layoutBytes(boxes), budget/2)
		if err != nil {
			return nil, err
		}
		for _, p := range pieces {
			pu := oocUnit{passes: [][]descriptor.Comp{{{Op: u.passes[0][0].Op, Params: p}}}}
			if pu.boxes, err = unitBoxes(pu.passes, inWindow); err != nil {
				return nil, err
			}
			if layoutBytes(pu.boxes) > budget {
				return nil, fmt.Errorf("%w: split piece still exceeds the staging half", ErrUnchunkable)
			}
			out = append(out, pu)
		}
	}
	return out, nil
}

// PlanOOC lowers an out-of-core descriptor into a chunked schedule over the
// double-buffered staging region: halves[0] and halves[1] are the two
// staging bases, halfBytes the capacity of each. inWindow classifies
// physical addresses as host-backed. The chunk descriptors are complete,
// verified-shape descriptors over staging (and untouched resident)
// addresses only.
func (l *Layer) PlanOOC(d *descriptor.Descriptor, inWindow func(phys.Addr) bool, halves [2]phys.Addr, halfBytes units.Bytes) (*OOCSchedule, error) {
	if halfBytes <= 0 {
		return nil, fmt.Errorf("accel: ooc: no staging region configured")
	}
	units_, err := oocUnitsOf(d, inWindow, halfBytes)
	if err != nil {
		return nil, err
	}
	// Greedy grouping: pack units into a chunk while the merged extent
	// layout fits the staging half and the flat descriptor fits the
	// instruction memory.
	imem := l.cfg.CU.IMEMBytes
	var groups [][]oocUnit
	var cur []oocUnit
	var curBoxes []span.Dir
	curDesc := descriptor.CRSize
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur, curBoxes, curDesc = nil, nil, descriptor.CRSize
		}
	}
	for _, u := range units_ {
		tentative := mergeBoxes(append(append([]span.Dir(nil), curBoxes...), u.boxes...))
		uDesc := descriptor.PassesSize(u.passes)
		if len(cur) > 0 && (layoutBytes(tentative) > halfBytes || curDesc+uDesc > imem) {
			flush()
			tentative = mergeBoxes(append([]span.Dir(nil), u.boxes...))
		}
		cur = append(cur, u)
		curBoxes = tentative
		curDesc += uDesc
	}
	flush()

	sched := &OOCSchedule{}
	var prevOut, out []span.Span // write-back extents of the previous and the current chunk
	for gi, group := range groups {
		var boxes []span.Dir
		for _, u := range group {
			boxes = append(boxes, u.boxes...)
		}
		boxes = mergeBoxes(boxes)
		ch := &OOCChunk{Half: gi % 2}
		// Lay the extents out in the chunk's staging half.
		staged := halves[ch.Half]
		out = out[:0]
		for _, b := range boxes {
			ch.Extents = append(ch.Extents, OOCExtent{Host: b.Addr, Staged: staged, Bytes: b.Bytes, Out: b.Write})
			staged += phys.Addr((b.Bytes + oocAlign - 1) / oocAlign * oocAlign)
			ch.StageInBytes += b.Bytes
			if b.Write {
				ch.WriteBackBytes += b.Bytes
				out = append(out, b.Span)
			}
		}
		mapAddr := func(a phys.Addr, n units.Bytes) (phys.Addr, error) {
			if !inWindow(a) {
				return a, nil
			}
			i := sort.Search(len(ch.Extents), func(i int) bool {
				return ch.Extents[i].Host+phys.Addr(ch.Extents[i].Bytes) > a
			})
			if i < len(ch.Extents) && a >= ch.Extents[i].Host && a+phys.Addr(n) <= ch.Extents[i].Host+phys.Addr(ch.Extents[i].Bytes) {
				return ch.Extents[i].Staged + (a - ch.Extents[i].Host), nil
			}
			if n == 0 {
				return a, nil // zero-length operand: never accessed
			}
			return 0, fmt.Errorf("accel: ooc: window access %v+%v lands outside every staged extent", a, n)
		}
		cd := &descriptor.Descriptor{}
		for _, u := range group {
			for _, pass := range u.passes {
				for _, pi := range pass {
					p, err := rebaseComp(pi.Op, pi.Params, mapAddr)
					if err != nil {
						return nil, err
					}
					if err := cd.AddComp(pi.Op, p); err != nil {
						return nil, err
					}
				}
				cd.AddEndPass()
			}
		}
		ch.Desc = cd
		if ch.Prog, err = l.Compile(cd); err != nil {
			return nil, fmt.Errorf("accel: ooc: chunk %d: %w", gi, err)
		}
		// The stage-in may run under the previous chunk's execution and
		// write-back only when it reads nothing the previous chunk writes.
		ch.Prefetchable = gi > 0 && !span.Overlap(prevOut, boxes)
		if cd.Size() > sched.MaxDescBytes {
			sched.MaxDescBytes = cd.Size()
		}
		sched.StageInBytes += ch.StageInBytes
		sched.WriteBackBytes += ch.WriteBackBytes
		sched.Chunks = append(sched.Chunks, ch)
		prevOut, out = out, prevOut
	}
	return sched, nil
}
