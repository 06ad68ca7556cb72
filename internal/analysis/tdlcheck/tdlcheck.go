// Package tdlcheck statically verifies TDL programs and accelerator
// descriptors before they reach the simulated stack. The compiler and the
// runtime trust descriptor contents; without this pass a malformed task
// graph (dangling parameter reference, zero-trip loop, overlapping operand
// spans, inconsistent operand sizes, non-power-of-two FFT, read of an
// uninitialized intermediate) only surfaces — or silently corrupts results —
// deep inside the accelerator layer. Production library stacks reject such
// inputs up front (cf. MKL input validation); tdlcheck is that layer.
//
// Three entry points, by how much is known at the call site:
//
//   - VerifyProgram checks a parsed tdl.Program structurally (loop trip
//     counts, nesting, opcode validity) without parameter bindings — what
//     tdlc and the source-to-source compiler can check.
//   - Verify additionally resolves every parameter reference and checks the
//     per-kernel operand semantics and the dataflow of the task graph —
//     what mealib_acc_plan checks.
//   - Check performs the operand and dataflow checks on an already-lowered
//     descriptor in one reading and returns the verdict together with the
//     footprint — what the runtime does on the AccPlanDescriptor path.
//     VerifyDescriptor (its verdict; with the host-initialized span set, the
//     error of a launch about to be rejected), Writes, Reads and ExposedReads
//     are views of it.
//
// Errors carry positions: the TDL source line when the program was parsed,
// otherwise the accelerator-invocation index.
package tdlcheck

import (
	"fmt"
	"math"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/span"
	"mealib/internal/tdl"
)

// Error is one verification failure with its position.
type Error struct {
	// Line is the 1-based TDL source line (0 when the program was built
	// programmatically or verified at the descriptor level).
	Line int
	// Comp is the index of the accelerator invocation the failure belongs
	// to, in program order (-1 when not invocation-specific).
	Comp int
	// Msg describes the failure.
	Msg string
}

// Error renders the failure with its position.
func (e *Error) Error() string {
	switch {
	case e.Line > 0:
		return fmt.Sprintf("tdlcheck: line %d: %s", e.Line, e.Msg)
	case e.Comp >= 0:
		return fmt.Sprintf("tdlcheck: comp %d: %s", e.Comp, e.Msg)
	default:
		return "tdlcheck: " + e.Msg
	}
}

// ErrorList collects every failure found in one verification pass.
type ErrorList []*Error

// Error renders the whole list, one failure per line.
func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "tdlcheck: no errors"
	}
	msgs := make([]string, len(l))
	for i, e := range l {
		msgs[i] = e.Error()
	}
	return strings.Join(msgs, "\n")
}

// errs is a builder for ErrorList.
type errs struct{ list ErrorList }

func (e *errs) addf(line, comp int, format string, args ...interface{}) {
	e.list = append(e.list, &Error{Line: line, Comp: comp, Msg: fmt.Sprintf(format, args...)})
}

func (e *errs) err() error {
	if len(e.list) == 0 {
		return nil
	}
	return e.list
}

// Span is a half-open byte range [Addr, Addr+Bytes) in the physical space.
type Span = span.Span

// operand is one buffer an invocation touches.
type operand struct {
	name string
	// Strided is the span at loop iteration zero, written or not, with the
	// per-level byte advance the hardware applies each loop trip (zero outside
	// a LOOP). ext is its whole-nest extent (span.Strided.Extent), what the
	// whole LOOP touches, or the iteration-zero span when the extent does not
	// fit the address space; checkIntervals reports that.
	span.Strided
	ext   Span
	align int64 // required address alignment (element size)
	read  bool
}

// comp is one accelerator invocation in verification form.
type comp struct {
	line int // 0 when unknown
	idx  int // invocation index in program order
	pass int // pass ordinal
	op   descriptor.OpCode
	// counts is the enclosing hardware loop nest (all-ones outside a LOOP).
	counts descriptor.LoopCounts
	ops    []operand
}

// operandsOf binds the parameter block of one invocation to its op-table
// entry, runs the accelerator's input checks, proves every operand size in
// exact arithmetic, and returns the operand list. counts is the enclosing
// hardware loop nest (all-ones outside a LOOP).
func operandsOf(op descriptor.OpCode, p descriptor.Params, counts descriptor.LoopCounts, fail func(format string, args ...interface{})) []operand {
	a, err := accel.Bind(op, p)
	if err == nil {
		err = a.Validate()
	}
	if err != nil {
		fail("%v", err)
		return nil
	}
	ops := make([]operand, 0, a.NumOperands())
	fits := true
	for i := 0; i < a.NumOperands(); i++ {
		o := a.Operand(i)
		n, ok := operandBytes(o, op, fail)
		fits = fits && ok
		op := operand{name: o.Name, align: o.Elem, read: o.Read, Strided: span.Strided{
			Dir: span.Dir{Span: Span{Addr: o.Addr, Bytes: n}, Write: o.Write}, Strides: o.Strides}}
		if op.ext, ok = op.Extent(counts); !ok {
			op.ext = op.Span
		}
		ops = append(ops, op)
	}
	if !fits {
		return nil
	}
	return ops
}

// checkComp runs the per-invocation checks common to every kernel:
// symbolic loop-interval bounds, alignment and intra-invocation operand
// overlap.
func checkComp(c *comp, e *errs) {
	checkIntervals(c, e)
	for _, o := range c.ops {
		if o.align > 1 && int64(o.Addr)%o.align != 0 {
			e.addf(c.line, c.idx, "%v: operand %s at %v is not %d-byte aligned", c.op, o.name, o.Addr, o.align)
		}
	}
	// A written operand must not partially overlap any other operand:
	// streaming engines read and write concurrently, so only exact aliasing
	// (in-place operation on the identical span) is well-defined.
	for i := 0; i < len(c.ops); i++ {
		for j := i + 1; j < len(c.ops); j++ {
			a, b := c.ops[i], c.ops[j]
			if !a.Write && !b.Write {
				continue
			}
			if a.Span.Overlaps(b.Span) && a.Span != b.Span {
				e.addf(c.line, c.idx, "%v: operands %s %v and %s %v partially overlap", c.op, a.name, a.Span, b.name, b.Span)
			}
		}
	}
}

// loopCountsOf right-aligns a TDL loop nest into the descriptor's fixed
// LoopCounts form, the way descriptor.AddLoop does.
func loopCountsOf(counts []int) descriptor.LoopCounts {
	var lc descriptor.LoopCounts
	for i := range lc {
		lc[i] = 1
	}
	off := descriptor.MaxLoopLevels - len(counts)
	for i, c := range counts {
		if off+i >= 0 && c > 0 && c <= math.MaxUint32 {
			lc[off+i] = uint32(c)
		}
	}
	return lc
}

// options collects Verify adjustments.
type options struct {
	initialized []Span
	checkInit   bool
}

// Option adjusts verification.
type Option func(*options)

// WithInitialized declares the buffer spans the host (or earlier descriptor
// executions) initialized before launch, enabling the read-before-write
// check: every operand read by the task graph must be covered by an
// initialized span or by an earlier write of the same program.
func WithInitialized(spans ...Span) Option {
	return func(o *options) {
		o.initialized = append(o.initialized, spans...)
		o.checkInit = true
	}
}

// VerifyProgram checks a parsed TDL program structurally, without parameter
// bindings: non-empty, valid opcodes, loop trip counts positive and within
// the descriptor's uint32 count fields, nest depth within the hardware
// limit. This is the check available before parameters bind (tdlc,
// mealibcc).
func VerifyProgram(prog *tdl.Program) error {
	var e errs
	verifyStructure(prog, &e)
	return e.err()
}

func verifyStructure(prog *tdl.Program, e *errs) {
	if prog == nil || len(prog.Blocks) == 0 {
		e.addf(0, -1, "empty program")
		return
	}
	idx := 0
	checkPass := func(p tdl.Pass) {
		if len(p.Comps) == 0 {
			e.addf(p.Line, -1, "PASS without COMP blocks")
		}
		for _, c := range p.Comps {
			if !c.Op.Valid() {
				e.addf(c.Line, idx, "invalid accelerator opcode %v", c.Op)
			}
			if c.ParamRef == "" {
				e.addf(c.Line, idx, "%v: empty parameter reference", c.Op)
			}
			idx++
		}
	}
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case tdl.Pass:
			checkPass(v)
		case tdl.Loop:
			if len(v.Counts) == 0 {
				e.addf(v.Line, -1, "LOOP without iteration counts")
			}
			if len(v.Counts) > descriptor.MaxLoopLevels {
				e.addf(v.Line, -1, "loop nest deeper than %d levels", descriptor.MaxLoopLevels)
			}
			for lvl, c := range v.Counts {
				if c <= 0 {
					e.addf(v.Line, -1, "zero-trip loop: level %d has count %d", lvl, c)
				} else if c > math.MaxUint32 {
					e.addf(v.Line, -1, "loop count %d at level %d exceeds the descriptor's 32-bit count field", c, lvl)
				}
			}
			if len(v.Passes) == 0 {
				e.addf(v.Line, -1, "LOOP without PASS blocks")
			}
			for _, p := range v.Passes {
				checkPass(p)
			}
		default:
			e.addf(0, -1, "unknown block type %T", blk)
		}
	}
}

// Verify checks a TDL program with its parameter bindings: everything
// VerifyProgram checks, plus parameter-reference resolution, per-kernel
// operand semantics (sizes, alignment, overlap, power-of-two FFT lengths,
// square in-place transposes), and the dataflow of the task graph (no
// write-after-read cycle inside a chained pass; with WithInitialized, no
// read of an uninitialized buffer).
func Verify(prog *tdl.Program, resolve tdl.ParamResolver, opts ...Option) error {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var e errs
	verifyStructure(prog, &e)
	if len(e.list) > 0 {
		return e.err() // structure is broken; operand checks would mislead
	}
	if resolve == nil {
		e.addf(0, -1, "nil parameter resolver")
		return e.err()
	}
	var comps []comp
	idx, passNo := 0, 0
	addPass := func(p tdl.Pass, counts descriptor.LoopCounts) {
		for _, c := range p.Comps {
			cm := comp{line: c.Line, idx: idx, pass: passNo, op: c.Op, counts: counts}
			params, err := resolve(c.ParamRef)
			if err != nil {
				e.addf(c.Line, idx, "dangling parameter reference %q: %v", c.ParamRef, err)
			} else {
				cm.ops = operandsOf(c.Op, params, counts, func(format string, args ...interface{}) {
					e.addf(c.Line, idx, format, args...)
				})
			}
			comps = append(comps, cm)
			idx++
		}
		passNo++
	}
	ones := loopCountsOf(nil)
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case tdl.Pass:
			addPass(v, ones)
		case tdl.Loop:
			lc := loopCountsOf(v.Counts)
			for _, p := range v.Passes {
				addPass(p, lc)
			}
		}
	}
	checkComps(comps, &o, &e)
	return e.err()
}

// Footprint is what a descriptor's task graph touches, every span extended
// over its hardware loops, in program order.
type Footprint struct {
	// Writes become initialized once the descriptor executes; Reads are what
	// concurrent executions must not overwrite while it runs.
	Writes, Reads []Span
	// Exposed are the reads no earlier write of the program overlaps: all of a
	// verified descriptor that the state of memory at launch still decides.
	// Check(d, WithInitialized(s...)) passes exactly when Check(d) does and
	// every exposed read overlaps one of s.
	Exposed []Span
}

// Check is the one reading of a lowered descriptor: it validates the
// structure, binds every invocation once, runs the operand and dataflow checks
// and returns the verdict together with the footprint. Positions are
// invocation indices (the TDL line information is gone after lowering). The
// footprint covers every invocation whose operands bound, whatever the
// verdict; VerifyDescriptor, Writes, Reads and ExposedReads are views of it.
func Check(d *descriptor.Descriptor, opts ...Option) (Footprint, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var e errs
	fp, err := check(d, &o, &e)
	if err != nil {
		e.addf(0, -1, "%v", err)
	}
	return fp, e.err()
}

// check is Check with the verdict in e and the failures that leave nothing to
// bind (no descriptor, a malformed instruction region, a COMP without
// parameters) as its error.
func check(d *descriptor.Descriptor, o *options, e *errs) (Footprint, error) {
	if d == nil {
		return Footprint{}, fmt.Errorf("nil descriptor")
	}
	if err := d.Validate(); err != nil {
		return Footprint{}, err
	}
	scopes, err := d.Scopes()
	if err != nil {
		return Footprint{}, err
	}
	comps := make([]comp, 0, d.Comps())
	for _, sc := range scopes {
		for pi, pass := range sc.Passes {
			for _, in := range pass {
				idx := in.Index
				comps = append(comps, comp{idx: idx, pass: sc.FirstPass + pi, op: in.Op, counts: sc.Counts,
					ops: operandsOf(in.Op, in.Params, sc.Counts, func(format string, args ...interface{}) {
						e.addf(0, idx, format, args...)
					})})
			}
		}
	}
	return checkComps(comps, o, e), nil
}

// VerifyDescriptor performs the operand and dataflow checks on a lowered
// descriptor: Check's verdict.
func VerifyDescriptor(d *descriptor.Descriptor, opts ...Option) error {
	_, err := Check(d, opts...)
	return err
}

// footprintOf is Check's footprint without its verdict, for the views that
// take any valid descriptor.
func footprintOf(d *descriptor.Descriptor) (Footprint, error) {
	fp, err := check(d, &options{}, &errs{})
	if err != nil {
		err = fmt.Errorf("tdlcheck: %w", err)
	}
	return fp, err
}

// ExposedReads returns the whole-loop extents of the reads no earlier write of
// the program overlaps (Footprint.Exposed). The descriptor must be valid.
func ExposedReads(d *descriptor.Descriptor) []Span {
	fp, _ := footprintOf(d)
	return fp.Exposed
}

// Writes returns the buffer spans a descriptor's task graph writes,
// extended over its hardware loops — what becomes initialized once the
// descriptor executes. The descriptor must be valid.
func Writes(d *descriptor.Descriptor) ([]Span, error) {
	fp, err := footprintOf(d)
	return fp.Writes, err
}

// Reads returns the buffer spans a descriptor's task graph reads, extended
// over its hardware loops — what concurrent in-flight executions must not
// overwrite while the descriptor runs. The descriptor must be valid.
func Reads(d *descriptor.Descriptor) ([]Span, error) {
	fp, err := footprintOf(d)
	return fp.Reads, err
}

// checkComps runs the per-invocation and cross-invocation (task graph)
// checks over the program's invocations in execution order, and collects
// their footprint on the way.
func checkComps(comps []comp, o *options, e *errs) Footprint {
	n := 0
	for i := range comps {
		checkComp(&comps[i], e)
		n += len(comps[i].ops)
	}
	// One slab (an operand is at most a read, an exposed read and a write), cut
	// so that no append reaches a neighbour.
	slab := make([]Span, 3*n)
	fp := Footprint{Reads: slab[:0:n], Exposed: slab[n : n : 2*n], Writes: slab[2*n : 2*n]}
	// Write-after-read inside a chained pass: the comps of a pass stream
	// concurrently (producer feeds consumer through tile-local memory), so a
	// later comp writing a span an earlier comp reads is a cycle in the
	// task graph — the datapath cannot be scheduled.
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			a, b := &comps[i], &comps[j]
			if a.pass != b.pass {
				continue
			}
			for _, ra := range a.ops {
				if !ra.read {
					continue
				}
				for _, wb := range b.ops {
					if !wb.Write {
						continue
					}
					if ra.Span.Overlaps(wb.Span) {
						e.addf(b.line, b.idx, "chained pass: %v writes %s %v which %v (comp %d) reads — cycle in the task graph", b.op, wb.name, wb.Span, a.op, a.idx)
					}
				}
			}
		}
	}
	// Read-before-write: a read no write of an earlier invocation overlaps is
	// exposed — only data initialized before the launch can satisfy it. With
	// the initialized span set known, every exposed read must be covered by it.
	// Extended (whole-loop) spans are used for writes and any-overlap semantics
	// for reads, so the check under-approximates and never rejects a program
	// whose reads might be satisfied.
	for i := range comps {
		c := &comps[i]
		for j := range c.ops {
			op := &c.ops[j]
			if !op.read {
				continue
			}
			fp.Reads = append(fp.Reads, op.ext)
			if span.Overlap(fp.Writes, []Span{op.ext}) {
				continue
			}
			fp.Exposed = append(fp.Exposed, op.ext)
			if o.checkInit && !span.Overlap(o.initialized, []Span{op.ext}) {
				e.addf(c.line, c.idx, "%v reads %s %v before any write reaches it (uninitialized buffer)", c.op, op.name, op.Span)
			}
		}
		for _, op := range c.ops {
			if op.Write {
				fp.Writes = append(fp.Writes, op.ext)
			}
		}
	}
	return fp
}
