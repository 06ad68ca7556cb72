package accel

import (
	"math/rand"
	"slices"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// The generator: a case of the matrix (matrix_test.go) is a function of a
// byte string, so that `go test -fuzz` shrinks a failure to a short one.
// Every comp is drawn from the op table's declarations: the schema of its
// parameter block, its validate, its operands' footprints.

// bits is the generator's entropy, one byte per draw. Past its end every
// draw is zero, so every byte string is a case and a shorter one a simpler
// case.
type bits []byte

func (b *bits) intn(n int) int {
	if n <= 1 || len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// The shapes of the second byte.
const (
	shapeSegments = iota // one to three segments: top-level passes or a LOOP nest
	shapeNest            // one LOOP nest
	shapeFixture         // a hand-written shape (shapes_test.go)
	shapes
)

// The flags of the first byte.
const (
	flagRemote  = 1 << iota // the arena's upper half lives on stack 1
	flagSmallLM             // 2-byte tile memories: chained handoffs spill, fusion refuses
	flagFailing             // one comp cannot run
)

// genCase draws a case: the first byte's flags, the second byte's shape and
// the rest for the shape's choices.
func genCase(t testing.TB, data []byte) *diffCase {
	b := bits(data)
	flags := b.intn(8)
	g := &gen{t: t, b: &b, d: &descriptor.Descriptor{}, next: arenaBase}
	var c *diffCase
	switch b.intn(shapes) {
	case shapeSegments:
		for s := 1 + b.intn(3); s > 0; s-- {
			if b.intn(2) == 0 {
				g.passes()
			} else {
				g.nest()
			}
		}
		c = g.done()
	case shapeNest:
		g.nest()
		c = g.done()
	default:
		r := rigOn(t, MEALibConfig(), 16*units.MiB)
		d := fixtures[b.intn(len(fixtures))].build(t, r)
		c = &diffCase{d: d, mem: slices.Clone(mapped(t, r)[:r.next-arenaBase])}
	}
	c.remote = flags&flagRemote != 0
	if flags&flagSmallLM != 0 {
		c.lm = 2
	}
	if flags&flagFailing != 0 && c.d.Comps() > 0 {
		c.d = breakComp(t, c.d, b.intn(c.d.Comps()), b.intn(2) == 0)
	}
	return c
}

// breakComp makes comp i of d fail at every instance the same way: it names
// an accelerator whose block has another field count, which does not bind (a
// failing template), or its first operand moves to an unmapped address with
// no strides.
func breakComp(t testing.TB, d *descriptor.Descriptor, i int, unbound bool) *descriptor.Descriptor {
	d = d.Clone()
	in := &d.Instrs[0]
	for k, comp := 0, -1; comp < i; k++ {
		if in = &d.Instrs[k]; in.Kind == descriptor.KindComp {
			comp++
		}
	}
	spec := specs[in.Op]
	if unbound {
		for op, s := range specs {
			if s != nil && s.nparams != spec.nparams {
				in.Op = descriptor.OpCode(op)
				return d
			}
		}
	}
	p, err := d.ParamsOf(i)
	if err != nil {
		t.Fatal(err)
	}
	f := spec.operands[0].addr
	p[f] = descriptor.AddrField(arenaBase + 512<<20)
	if off := spec.strideOff[f]; off > 0 {
		clear(p[off : off+descriptor.MaxLoopLevels])
	}
	return d
}

// gen lays out a drawn case: buffers are carved from the arena in order and
// filled with noise, index operands with well-formed indices.
type gen struct {
	t    testing.TB
	b    *bits
	d    *descriptor.Descriptor
	next phys.Addr
	// pool is the top-level buffers an operand may take again; indexed is the
	// comps whose index operands done fills.
	pool    []pooled
	indexed []Args
}

type pooled struct {
	addr  phys.Addr
	bytes units.Bytes
}

// alloc carves room for a buffer reaching below bytes under its base and
// above bytes from it, and returns the base.
func (g *gen) alloc(below, above int64) phys.Addr {
	base := g.next + phys.Addr(below)
	g.next = (base + phys.Addr(above) + 63) &^ 63
	return base
}

// done fills the arena and returns the case.
func (g *gen) done() *diffCase {
	s := phys.NewSpace(1 * units.GiB)
	r, err := s.Map(arenaBase, units.Bytes(g.next-arenaBase))
	if err != nil {
		g.t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(r.Size())))
	view, _ := phys.ViewOf[float32](s, r.Addr(), int(r.Size())/4)
	words := view.Data
	for i := range words {
		words[i] = 2*rng.Float32() - 1
	}
	for _, a := range g.indexed {
		indexFill[opOf(a)](g.t, rng, s, a, IterVec{})
	}
	return &diffCase{d: g.d, mem: r.Bytes()}
}

func (g *gen) comp(op descriptor.OpCode, p descriptor.Params) {
	if err := g.d.AddComp(op, p); err != nil {
		g.t.Fatal(err)
	}
}

// passes draws one to four top-level passes. A pass is one or two comps of
// any accelerator, or a RESMP feeding an in-place FFT over two passes, which
// fusion may merge. An operand takes a fresh buffer or one an earlier operand
// took, so that passes depend on each other every way.
func (g *gen) passes() {
	for n := 1 + g.b.intn(4); n > 0; n-- {
		if g.b.intn(4) == 3 {
			row := int64(4) << g.b.intn(4)
			src, dst := g.place(units.Bytes(8*(row-1))), g.place(units.Bytes(8*row))
			g.comp(descriptor.OpRESMP, ResmpArgs{NIn: row - 1, NOut: row, Kind: ResmpComplex + int64(g.b.intn(2)), Src: src, Dst: dst}.Params())
			g.d.AddEndPass()
			g.comp(descriptor.OpFFT, FFTArgs{N: row, HowMany: 1, Src: dst, Dst: dst}.Params())
		} else {
			for c := 1 + g.b.intn(2); c > 0; c-- {
				g.anyComp()
			}
		}
		g.d.AddEndPass()
	}
}

// place takes a pooled buffer of at least n bytes, or carves a new one.
func (g *gen) place(n units.Bytes) phys.Addr {
	if len(g.pool) > 0 && g.b.intn(3) == 0 {
		from := g.b.intn(len(g.pool))
		for i := range g.pool {
			if p := g.pool[(from+i)%len(g.pool)]; p.bytes >= n {
				return p.addr
			}
		}
	}
	a := g.alloc(0, int64(n))
	g.pool = append(g.pool, pooled{a, n})
	return a
}

// anyComp draws a comp of any accelerator (drawArgs) and places its
// operands in the arena, aliased ones together. The operands of an op with
// index operands get buffers of their own, which nothing else writes.
func (g *gen) anyComp() {
	var ops []descriptor.OpCode
	for op, spec := range specs {
		if spec != nil {
			ops = append(ops, descriptor.OpCode(op))
		}
	}
	from := g.b.intn(len(ops))
	var a Args
	ok := false
	for k := 0; !ok && k < 2*len(ops); k++ {
		a, ok = drawArgs(g.b, ops[(from+k)%len(ops)])
	}
	if !ok {
		g.t.Fatal("no accelerator of the op table drew a valid block")
	}
	op, placed := opOf(a), map[uint64]phys.Addr{}
	addrs := make([]phys.Addr, a.NumOperands())
	for i, o := range a.spec.operands {
		at, ok := placed[a.p[o.addr]]
		switch n := a.Operand(i).Bytes(); {
		case ok:
		case indexFill[op] != nil:
			at = g.alloc(0, int64(n))
		default:
			at = g.place(n)
		}
		placed[a.p[o.addr]], addrs[i] = at, at
	}
	for i, o := range a.spec.operands {
		a.p[o.addr] = descriptor.AddrField(addrs[i])
	}
	if indexFill[op] != nil {
		g.indexed = append(g.indexed, a)
	}
	g.comp(op, a.p)
}

// opOf is the opcode of a bound block.
func opOf(a Args) descriptor.OpCode {
	return descriptor.OpCode(slices.Index(specs[:], a.spec))
}

// drawArgs draws a parameter block for op that passes the accelerator's
// own input checks, knowing nothing about the op beyond its table entry:
// small integers for the int fields (rejection-sampled against validate, a
// draw of zero reading 1), the address fields at 1 MiB steps, sometimes
// aliased pairwise, so in-place forms are drawn too, under the verifier's
// rule that a written operand aliases another exactly or not at all — and
// element-multiple loop strides of either sign. Ops with index operands
// (indexFill) are never aliased: one buffer cannot hold two index
// structures. ok is false when 256 draws found no valid block.
func drawArgs(b *bits, op descriptor.OpCode) (_ Args, ok bool) {
	spec := specs[op]
	for try := 0; try < 256; try++ {
		p := make(descriptor.Params, spec.nparams)
		var addrs []int
		for f, k := range spec.fields {
			switch k {
			case fInt:
				p[f] = uint64(int64((b.intn(14)+3)%14 - 2))
			case fF32:
				p[f] = descriptor.F32Field(float32(b.intn(5)) / 2)
			default:
				p[f] = uint64(1+len(addrs)) << 20
				if len(addrs) > 0 && indexFill[op] == nil && b.intn(6) == 1 {
					p[f] = p[addrs[b.intn(len(addrs))]]
				}
				addrs = append(addrs, f)
			}
		}
		a := Args{spec: spec, p: p}
		if a.Validate() != nil || !aliasesExactly(a) {
			continue
		}
		for _, off := range spec.strideOff {
			for l := 0; off > 0 && l < descriptor.MaxLoopLevels; l++ {
				p[off+l] = uint64(spec.elem(a) * int64(b.intn(9)-4))
			}
		}
		return a, true
	}
	return Args{}, false
}

// aliasesExactly reports whether every written operand is identical to or
// disjoint from every other operand at iteration zero.
func aliasesExactly(a Args) bool {
	for i := 0; i < a.NumOperands(); i++ {
		for j := 0; j < a.NumOperands(); j++ {
			x, y := a.Operand(i), a.Operand(j)
			xs, ys := span.Span{Addr: x.Addr, Bytes: x.Bytes()}, span.Span{Addr: y.Addr, Bytes: y.Bytes()}
			if x.Write && xs != ys && xs.Overlaps(ys) {
				return false
			}
		}
	}
	return true
}

// indexFill writes well-formed index structures over operands whose
// contents a kernel interprets as positions; every other operand is dense
// numeric data and takes the default fill. Keyed by opcode, so the default
// covers any accelerator that streams plain numbers.
var indexFill = map[descriptor.OpCode]func(t testing.TB, rng *rand.Rand, s *phys.Space, a Args, it IterVec){
	descriptor.OpSPMV: func(t testing.TB, rng *rand.Rand, s *phys.Space, a Args, it IterVec) {
		m, cols, nnz := int(a.i(spM)), int(a.i(spCols)), int(a.i(spNNZ))
		rowPtr := make([]int32, m+1)
		for i := 1; i <= m; i++ {
			rowPtr[i] = rowPtr[i-1] + int32(rng.Intn(nnz-int(rowPtr[i-1])+1))
		}
		colIdx := make([]int32, nnz)
		for k := range colIdx {
			colIdx[k] = int32(rng.Intn(cols))
		}
		if err := phys.Store(s, a.at(spRowPtr, it), rowPtr); err != nil {
			t.Fatal(err)
		}
		if nnz > 0 {
			if err := phys.Store(s, a.at(spColIdx, it), colIdx); err != nil {
				t.Fatal(err)
			}
		}
	},
}

// nest draws a LOOP of 1-3 iterating levels (counts 2-6, sometimes a level of
// 1 between them) around 1-3 body passes whose operands come from a small
// pool of 64-byte buffers, so that comps share bytes. A buffer's strides are
// zero, a tiling in a random level order with random signs and gaps, smaller
// than the footprint, or arbitrary; a buffer may also sit half-way into the
// one before. Passes are single comps, chained pairs, or a RESMP feeding an
// in-place FFT that fusion may merge. Conflict-free, carried and overlapping
// nests all come out of it.
func (g *gen) nest() {
	const foot = 64
	b := g.b
	counts := make([]uint32, 1+b.intn(3))
	for i := range counts {
		counts[i] = uint32(2 + b.intn(5))
	}
	if len(counts) > 1 && b.intn(4) == 0 {
		counts[b.intn(len(counts))] = 1
	}
	level := func(i int) int { return descriptor.MaxLoopLevels - len(counts) + i }
	type buffer struct {
		base    phys.Addr
		strides Strides
		// half: the buffer starts half-way into the one before; below and
		// above are how far its iterations reach around its base.
		half         bool
		below, above int64
	}
	pool := make([]buffer, 2+b.intn(3))
	for i := range pool {
		nb := &pool[i]
		nb.half = i > 0 && b.intn(5) == 0
		switch b.intn(7) {
		case 0: // shared by every iteration
		case 1, 2, 3, 4:
			step := int64(foot) << b.intn(2)
			for _, i := range perm(b, len(counts)) {
				nb.strides[level(i)] = step * int64(1-2*b.intn(2))
				step *= int64(counts[i]) + int64(b.intn(2))
			}
			if b.intn(6) == 0 { // one level falls short
				nb.strides[level(b.intn(len(counts)))] /= 2
			}
		case 5:
			nb.strides[level(len(counts)-1)] = foot / 2
		default:
			for i := range counts {
				nb.strides[level(i)] = int64(8 * (b.intn(49) - 24))
			}
		}
		nb.above = foot
		for i, c := range counts {
			if s := nb.strides[level(i)] * int64(c-1); s < 0 {
				nb.below -= s
			} else {
				nb.above += s
			}
		}
	}
	// A buffer and the ones half-way into it share one carving.
	for i := 0; i < len(pool); {
		j, below, above := i+1, pool[i].below, pool[i].above
		for ; j < len(pool) && pool[j].half; j++ {
			off := int64(foot / 2 * (j - i))
			below, above = max(below, pool[j].below-off), max(above, off+pool[j].above)
		}
		base := g.alloc((below+63)&^63, above)
		for k := i; k < j; k++ {
			pool[k].base = base + phys.Addr(foot/2*(k-i))
		}
		i = j
	}
	pick := func() buffer { return pool[b.intn(len(pool))] }
	if err := g.d.AddLoop(counts...); err != nil {
		g.t.Fatal(err)
	}
	axpy := func() {
		x, y := pick(), pick()
		g.comp(descriptor.OpAXPY, AxpyArgs{N: foot / 4, Alpha: 0.5, X: x.base, Y: y.base, IncX: 1, IncY: 1,
			LoopStrideX: x.strides, LoopStrideY: y.strides}.Params())
	}
	dot := func() {
		x, y, out := pick(), pick(), pick()
		g.comp(descriptor.OpDOT, DotArgs{N: foot / 4, X: x.base, Y: y.base, Out: out.base + phys.Addr(4*b.intn(foot/4)), IncX: 1, IncY: 1,
			LoopStrideX: x.strides, LoopStrideY: y.strides, LoopStrideOut: out.strides}.Params())
	}
	for passes := 1 + b.intn(3); passes > 0; passes-- {
		switch b.intn(4) {
		case 0:
			axpy()
		case 1:
			dot()
		case 2: // chained
			axpy()
			dot()
		default: // fusible: the FFT consumes the RESMP's row whole
			src, dst := pick(), pick()
			g.comp(descriptor.OpRESMP, ResmpArgs{NIn: foot / 8, NOut: foot / 8, Kind: ResmpComplex + int64(kernels.InterpLinear),
				Src: src.base, Dst: dst.base, LoopStrideSrc: src.strides, LoopStrideDst: dst.strides}.Params())
			g.d.AddEndPass()
			g.comp(descriptor.OpFFT, FFTArgs{N: foot / 8, HowMany: 1, Src: dst.base, Dst: dst.base,
				LoopStrideSrc: dst.strides, LoopStrideDst: dst.strides}.Params())
		}
		g.d.AddEndPass()
	}
	g.d.AddEndLoop()
}

// perm draws a permutation of [0, n).
func perm(b *bits, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := b.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// randomBits is n bytes of rng's: the generator driven by a seeded source.
func randomBits(rng *rand.Rand, n int) *bits {
	b := make(bits, n)
	rng.Read(b)
	return &b
}

// drawNest draws a one-LOOP descriptor from the generator on rng's bytes.
func drawNest(t testing.TB, rng *rand.Rand) *descriptor.Descriptor {
	b := *randomBits(rng, 64)
	b[0], b[1] = 0, shapeNest
	return genCase(t, b).d
}
