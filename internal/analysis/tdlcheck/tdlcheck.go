// Package tdlcheck statically verifies accelerator descriptors, and so the
// TDL programs they are compiled from, before they reach the simulated stack.
// The compiler and the runtime trust descriptor contents; without this pass a
// malformed task graph (overlapping operand spans, inconsistent operand
// sizes, non-power-of-two FFT, read of an uninitialized intermediate) only
// surfaces — or silently corrupts results —
// deep inside the accelerator layer. Production library stacks reject such
// inputs up front (cf. MKL input validation); tdlcheck is that layer.
//
// A TDL program's structure (trip counts, nesting, opcodes, parameter
// references) is the parser's to reject (internal/tdl). What parameters
// decide is checked once, on the descriptor the program compiles to: Check
// performs the operand and dataflow checks in one reading and returns the
// verdict together with the footprint — what the runtime does at every
// install. VerifyDescriptor (its verdict; with the host-initialized span set,
// the error of a launch about to be rejected), Writes and Reads are views of
// it.
//
// Errors carry positions: the accelerator-invocation index, and once AtLines
// has named it the TDL source line of its COMP.
package tdlcheck

import (
	"fmt"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/span"
	"mealib/internal/tdl"
)

// Error is one verification failure with its position.
type Error struct {
	// Line is the 1-based TDL source line of the invocation's COMP (0 unless
	// AtLines named it).
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

func (e *errs) addf(comp int, format string, args ...interface{}) {
	e.list = append(e.list, &Error{Comp: comp, Msg: fmt.Sprintf(format, args...)})
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
	idx  int // invocation index in program order
	pass int // pass ordinal
	op   descriptor.OpCode
	// counts is the enclosing hardware loop nest (all-ones outside a LOOP).
	counts descriptor.LoopCounts
	args   accel.Args // the bound and validated parameter block
	ops    []operand
}

// operandsOf resolves c's operands, proves every operand size in exact
// arithmetic and appends them to slab, which the caller sized for the whole
// program: c.ops is c's part of it, empty when a size does not fit.
func operandsOf(c *comp, slab []operand, e *errs) []operand {
	lo, fits := len(slab), true
	fail := func(format string, args ...interface{}) { e.addf(c.idx, format, args...) }
	for i := 0; i < c.args.NumOperands(); i++ {
		o := c.args.Operand(i)
		n, ok := operandBytes(o, c.op, fail)
		fits = fits && ok
		op := operand{name: o.Name, align: o.Elem, read: o.Read, Strided: span.Strided{
			Dir: span.Dir{Span: Span{Addr: o.Addr, Bytes: n}, Write: o.Write}, Strides: o.Strides}}
		if op.ext, ok = op.Extent(c.counts); !ok {
			op.ext = op.Span
		}
		slab = append(slab, op)
	}
	if !fits {
		slab = slab[:lo]
	}
	c.ops = slab[lo:len(slab):len(slab)]
	return slab
}

// checkComp runs the per-invocation checks common to every kernel:
// symbolic loop-interval bounds, alignment and intra-invocation operand
// overlap.
func checkComp(c *comp, e *errs) {
	checkIntervals(c, e)
	for _, o := range c.ops {
		if o.align > 1 && int64(o.Addr)%o.align != 0 {
			e.addf(c.idx, "%v: operand %s at %v is not %d-byte aligned", c.op, o.name, o.Addr, o.align)
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
				e.addf(c.idx, "%v: operands %s %v and %s %v partially overlap", c.op, a.name, a.Span, b.name, b.Span)
			}
		}
	}
}

// Option adjusts verification: it is WithInitialized's span set. The zero
// Option runs no read-before-write check.
type Option struct{ initialized []Span }

// WithInitialized declares the buffer spans the host (or earlier descriptor
// executions) initialized before launch, enabling the read-before-write
// check: every operand read by the task graph must be covered by an
// initialized span or by an earlier write of the same program. With no spans
// the check still runs, and every exposed read fails it.
func WithInitialized(spans ...Span) Option {
	if spans == nil {
		spans = []Span{}
	}
	return Option{spans}
}

// AtLines names each failure in err, the error of a Check of the descriptor
// tdl.Compile made of prog, that belongs to an invocation by the source line
// of its COMP, and returns err. tdl.Compile numbers the invocations in
// program order. A nil prog names nothing.
func AtLines(err error, prog *tdl.Program) error {
	list, ok := err.(ErrorList)
	if !ok || prog == nil {
		return err
	}
	var lines []int
	addPass := func(p tdl.Pass) {
		for _, c := range p.Comps {
			lines = append(lines, c.Line)
		}
	}
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case tdl.Pass:
			addPass(v)
		case tdl.Loop:
			for _, p := range v.Passes {
				addPass(p)
			}
		}
	}
	for _, e := range list {
		if e.Comp >= 0 && e.Comp < len(lines) {
			e.Line = lines[e.Comp]
		}
	}
	return err
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
	// Scopes is the pass structure this reading parsed: an install keeps it,
	// so nothing parses the descriptor again.
	Scopes []descriptor.Scope
}

// Check is the one reading of a lowered descriptor: it validates the
// structure, binds every invocation once, runs the operand and dataflow checks
// and returns the verdict together with the footprint. Positions are
// invocation indices (AtLines turns them into TDL source lines). The
// footprint covers every invocation whose operands bound, whatever the
// verdict; VerifyDescriptor, Writes and Reads are views of it.
func Check(d *descriptor.Descriptor, opts ...Option) (Footprint, error) {
	var initialized []Span // the last set given
	for _, o := range opts {
		if o.initialized != nil {
			initialized = o.initialized
		}
	}
	var e errs
	fp, err := check(d, initialized, &e)
	if err != nil {
		e.addf(-1, "%v", err)
	}
	return fp, e.err()
}

// check is Check with the verdict in e and the failures that leave nothing to
// bind (no descriptor, a malformed instruction region, a COMP without
// parameters) as its error.
func check(d *descriptor.Descriptor, initialized []Span, e *errs) (Footprint, error) {
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
	// Every invocation binds first, which sizes one operand slab for the
	// whole program; each comp's operands are its slice of it. One that does
	// not bind, or fails its accelerator's input checks, leaves only its error.
	comps := make([]comp, 0, d.Comps())
	n := 0
	for _, sc := range scopes {
		for pi, pass := range sc.Passes {
			for _, in := range pass {
				a, err := accel.Bind(in.Op, in.Params)
				if err == nil {
					err = a.Validate()
				}
				if err != nil {
					e.addf(in.Index, "%v", err)
					continue
				}
				n += a.NumOperands()
				comps = append(comps, comp{idx: in.Index, pass: sc.FirstPass + pi, op: in.Op, counts: sc.Counts, args: a})
			}
		}
	}
	slab := make([]operand, 0, n)
	for i := range comps {
		slab = operandsOf(&comps[i], slab, e)
	}
	fp := checkComps(comps, len(slab), initialized, e)
	fp.Scopes = scopes
	return fp, nil
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
	fp, err := check(d, nil, &errs{})
	if err != nil {
		err = fmt.Errorf("tdlcheck: %w", err)
	}
	return fp, err
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
// checks over the program's invocations, n operands in all, in execution
// order, and collects their footprint on the way.
func checkComps(comps []comp, n int, initialized []Span, e *errs) Footprint {
	for i := range comps {
		checkComp(&comps[i], e)
	}
	// One slab for the n operands (an operand is at most a read, an exposed
	// read and a write), cut so that no append reaches a neighbour.
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
						e.addf(b.idx, "chained pass: %v writes %s %v which %v (comp %d) reads — cycle in the task graph", b.op, wb.name, wb.Span, a.op, a.idx)
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
			if initialized != nil && !span.Overlap(initialized, []Span{op.ext}) {
				e.addf(c.idx, "%v reads %s %v before any write reaches it (uninitialized buffer)", c.op, op.name, op.Span)
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
