package accel

import (
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Everything derived from the op table's operand declarations: the resolved
// operand the verifier inspects, the directional footprint the scheduler,
// the independence checker and the out-of-core chunker order work by, the
// whole-loop extents fusion legality is judged on, the workload profile the
// timing model prices, and the locality classification of paper §3.3.

// Operand is one memory operand of a bound invocation.
type Operand struct {
	Name string
	// Addr is the base address at LOOP iteration zero; Strides is its per-level
	// byte advance across the enclosing nest.
	Addr    phys.Addr
	Strides Strides
	// Elem is the element size in bytes, which is also the alignment Addr must
	// have. The footprint is Elem*((N-1)*|Step| + Tail) bytes, or nothing when
	// N <= 0; Bytes evaluates it in machine arithmetic, the verifier in exact.
	Elem          int64
	N, Step, Tail int64
	// Read and Write are the directions this invocation streams the operand in.
	Read, Write bool
}

// NumOperands returns how many memory operands the accelerator declares.
func (a Args) NumOperands() int { return len(a.spec.operands) }

// Operand resolves the i-th declared operand against the parameter block.
func (a Args) Operand(i int) Operand {
	o := &a.spec.operands[i]
	n, step, tail := o.footprint(a)
	return Operand{
		Name: o.name, Addr: descriptor.AddrOf(a.p[o.addr]), Strides: a.strides(o.addr),
		Elem: a.spec.elem(a), N: n, Step: step, Tail: tail,
		Read:  o.acc&accRead != 0 && (o.readIf == nil || o.readIf(a)),
		Write: o.acc&accWrite != 0,
	}
}

// Validate runs the accelerator's input checks.
func (a Args) Validate() error { return a.spec.validate(a) }

// elems evaluates an extent in machine arithmetic.
func elems(n, step, tail int64) int64 {
	if n <= 0 {
		return 0
	}
	if step < 0 {
		step = -step
	}
	return (n-1)*step + tail
}

// Bytes returns the operand's footprint.
func (o Operand) Bytes() units.Bytes { return units.Bytes(o.Elem * elems(o.N, o.Step, o.Tail)) }

// appendSpans appends the invocation's directional spans to dst, each at
// iteration zero with its operand's strides: reads and writes separately, a
// read-modify-write operand in both directions, empty operands skipped. It is
// the one list every footprint starts from: span.Strided.At places an entry at
// one iteration, Extent over a whole nest.
func (a Args) appendSpans(dst []span.Strided) []span.Strided {
	for i := range a.spec.operands {
		o := a.Operand(i)
		s := span.Strided{Strides: o.Strides}
		if s.Addr, s.Bytes = o.Addr, o.Bytes(); s.Bytes <= 0 {
			continue
		}
		if o.Read {
			dst = append(dst, s)
		}
		if s.Write = o.Write; o.Write {
			dst = append(dst, s)
		}
	}
	return dst
}

// spanBuf is stack room for one invocation's span list, any accelerator's.
type spanBuf [8]span.Strided

// traffic returns the bytes operand i streams in one direction: its footprint
// unless the table declares a different traffic extent.
func (a Args) traffic(i int) units.Bytes {
	o := &a.spec.operands[i]
	ext := o.traffic
	if ext == nil {
		ext = o.footprint
	}
	return units.Bytes(a.spec.elem(a) * elems(ext(a)))
}

// Work is the workload profile one accelerator invocation presents to the
// memory system and datapath; the timing model converts it to time/energy.
type Work struct {
	Flops units.Flops
	// InStream/OutStream are sequential DRAM traffic. When a pass chains two
	// accelerators, the producer's OutStream and the consumer's InStream
	// stay in tile-local memory instead (paper §2.2 / Figure 12a).
	InStream  units.Bytes
	OutStream units.Bytes
	// Random is latency-bound, row-miss-prone traffic (SPMV gathers).
	Random units.Bytes
}

// Total returns all DRAM bytes the invocation would move unchained.
func (w Work) Total() units.Bytes { return w.InStream + w.OutStream + w.Random }

// Work computes the invocation's workload profile from the parameters alone.
func (a Args) Work() Work {
	var w Work
	if a.spec.flops != nil {
		w.Flops = a.spec.flops(a)
	}
	for i := range a.spec.operands {
		o, n := &a.spec.operands[i], a.traffic(i)
		switch {
		case o.acc&accRead == 0:
		case o.random:
			w.Random += n
		default:
			w.InStream += n
		}
		if o.acc&accWrite != 0 {
			w.OutStream += n
		}
	}
	return w
}

// WorkOf computes the workload profile of an invocation without executing
// it. The experiment harness uses this for paper-scale problem sizes where
// functionally transforming gigabytes per sweep point would be pointless.
func WorkOf(op descriptor.OpCode, p descriptor.Params) (Work, error) {
	a, err := Bind(op, p)
	if err != nil {
		return Work{}, err
	}
	return a.Work(), nil
}

// remoteBytes sums the traffic of operands living outside the home stack
// (paper §3.3: data should reside in the accelerator's Local Memory Stack;
// remote-stack traffic crosses the inter-stack high-speed links). An operand
// is classified by its base address and charged once per declared direction.
func (c *Config) remoteBytes(a Args) units.Bytes {
	if c.StackOf == nil {
		return 0
	}
	var remote units.Bytes
	for i := range a.spec.operands {
		o := &a.spec.operands[i]
		if stack := c.StackOf(descriptor.AddrOf(a.p[o.addr])); stack >= 0 && stack != c.HomeStack {
			n := a.traffic(i)
			if o.acc == accRead|accWrite {
				n *= 2
			}
			remote += n
		}
	}
	return remote
}

// remotePenalty converts remote traffic to the extra time and energy of
// crossing the inter-stack links instead of the local TSVs.
func (c *Config) remotePenalty(remote units.Bytes) (units.Seconds, units.Joules) {
	if remote <= 0 || c.RemoteLinkBW <= 0 {
		return 0, 0
	}
	linkT := c.RemoteLinkBW.Time(remote)
	localT := c.StreamBandwidth().Time(remote)
	extra := linkT - localT
	if extra < 0 {
		extra = 0
	}
	energy := units.Joules(float64(remote) * 8 * float64(c.ELinkBit))
	return extra, energy
}
