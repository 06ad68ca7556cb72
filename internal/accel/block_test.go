package accel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// DOT's block body (dotEntry, dotBlock): a block of instances run on views
// resolved once must leave what dotCore, run instance by instance, leaves.
// The differential matrix holds the same at engine level: its reference cell
// runs under coreOnly, every other cell through the block body.

// coreOnly runs f with DOT's op-table entry running every instance through
// dotCore, without the block body: the reference the block body is held to.
func coreOnly(f func()) {
	spec := specs[descriptor.OpDOT]
	entry := spec.core
	spec.core = ranged(dotCore)
	defer func() { spec.core = entry }()
	f()
}

// Where the block-body rig maps its regions: a, then b from where a ends (a
// region seam), an unmapped gap, then c.
const (
	blockA, blockASize = phys.Addr(0x100000), 256 * units.KiB
	blockB, blockBSize = blockA + phys.Addr(blockASize), 64 * units.KiB
	blockGap           = blockB + phys.Addr(blockBSize)
	blockC, blockCSize = blockGap + 0x10000, 64 * units.KiB
)

// blockRig is a space with the block-body rig's regions mapped, and their
// bytes.
type blockRig struct {
	s   *phys.Space
	mem [3][]byte
}

func newBlockRig(t *testing.T) *blockRig {
	t.Helper()
	r := &blockRig{s: phys.NewSpace(units.GiB)}
	for i, m := range []struct {
		at   phys.Addr
		size units.Bytes
	}{{blockA, blockASize}, {blockB, blockBSize}, {blockC, blockCSize}} {
		reg, err := r.s.Map(m.at, m.size)
		if err != nil {
			t.Fatal(err)
		}
		r.mem[i] = reg.Bytes()
	}
	return r
}

// fill writes finite floats drawn from seed into every region: words whose
// exponent is never all ones.
func (r *blockRig) fill(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, b := range r.mem {
		for i := 0; i+4 <= len(b); i += 4 {
			w := rng.Uint32() &^ (1 << 30)
			b[i], b[i+1], b[i+2], b[i+3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		}
	}
}

// reset copies o's bytes into r.
func (r *blockRig) reset(o *blockRig) *phys.Space {
	for i := range r.mem {
		copy(r.mem[i], o.mem[i])
	}
	return r.s
}

func (r *blockRig) equal(o *blockRig) bool {
	for i := range r.mem {
		if !bytes.Equal(r.mem[i], o.mem[i]) {
			return false
		}
	}
	return true
}

// dotOneByOne is the reference: dotCore on every instance of the block an
// earlier comp did not fail, its arguments decoded at the instance's
// iteration, each failed instance marked and the first failure kept.
func dotOneByOne(s *phys.Space, a Args, b iters) iters {
	it := b.it
	for j := 0; j < b.n; j++ {
		if j > 0 {
			nextIter(&it, &b.counts)
		}
		if b.failed&(1<<j) != 0 {
			continue
		}
		var d DotArgs
		slots := d.slots()
		a.decode(slots.fields(), it)
		if err := dotCore(s, &d); err != nil {
			b.failed |= 1 << j
			if b.err == nil || j < b.at {
				b.at, b.err = j, err
			}
		}
	}
	return b
}

var errEarlierComp = errors.New("an earlier comp failed")

// TestDotBlockIsCore runs DOT blocks of 1 to 64 instances of a two-level nest
// through the op table's entry (the block body for more than one instance)
// and instance by instance through dotCore, over real and complex vectors of
// every length and increment below, on operands laid out six ways. Both must
// skip the instances an earlier comp of the pass failed, leave the same bytes
// and fail the same instances with the same error. Where every hull lies
// inside one region the body must take the block; where hulls are
// misaligned, x steps off its element grid, or hulls cross the region seam or
// run into the unmapped gap, some blocks must fall back to the core.
//
// Gate (check.sh): the core-count gate.
func TestDotBlockIsCore(t *testing.T) {
	counts := descriptor.LoopCounts{1, 1, 8, 8}
	entry := specs[descriptor.OpDOT].core
	init, got, want, probe := newBlockRig(t), newBlockRig(t), newBlockRig(t), newBlockRig(t)
	init.fill(1)
	for _, cplx := range []bool{false, true} {
		e := int64(4)
		if cplx {
			e = 8
		}
		for _, n := range []int64{0, 1, 16, 300} {
			for _, incX := range []int64{1, 2, 32, -1} {
				for _, incY := range []int64{1, 2, 32, -1} {
					xb := e * max(1, int64(vecLen(n, incX)))
					xStride := Strides{0, 0, 128 * e, 16 * e}
					layouts := []struct {
						name               string
						x, y, out          phys.Addr
						xStride, outStride Strides
						inside, fall       bool
					}{
						{name: "one region", x: blockA, y: blockA + 0x18000, out: blockA + 0x30000,
							outStride: Strides{0, 0, 8 * e, e}, inside: true},
						// Every other x is two bytes off its element grid.
						{name: "x stride off the elements", x: blockA, y: blockA + 0x18000, out: blockA + 0x30000,
							xStride: Strides{0, 0, 128 * e, 16*e + 2}, outStride: Strides{0, 0, 8 * e, e}, fall: true},
						// out lies inside its own instance's x.
						{name: "out inside x", x: blockA, y: blockA + 0x18000, out: blockA + phys.Addr(xb/2/e*e),
							outStride: xStride, inside: true},
						{name: "misaligned", x: blockA + 2, y: blockA + 0x18000, out: blockA + 0x30000,
							outStride: Strides{0, 0, 8 * e, e}, fall: true},
						{name: "across the seam", x: blockB - phys.Addr(8*e), y: blockA + 0x18000, out: blockB - phys.Addr(4*e),
							outStride: Strides{0, 0, 8 * e, e}, fall: true},
						{name: "into the gap", x: blockGap - phys.Addr(48*e), y: blockA + 0x18000, out: blockGap - phys.Addr(8*e),
							outStride: Strides{0, 0, 8 * e, e}, fall: true},
					}
					for _, lay := range layouts {
						if lay.xStride == (Strides{}) {
							lay.xStride = xStride
						}
						a, err := Bind(descriptor.OpDOT, DotArgs{N: n, Complex: cplx, X: lay.x, Y: lay.y, Out: lay.out,
							IncX: incX, IncY: incY,
							LoopStrideX: lay.xStride, LoopStrideY: Strides{0, 0, 16 * e, 0},
							LoopStrideOut: lay.outStride}.Params())
						if err != nil {
							t.Fatal(err)
						}
						c := boundComp{Args: a, typed: a.spec.core.decode(a)}
						fellBack := false
						for _, size := range []int{1, 2, 7, 64} {
							cell := fmt.Sprintf("complex %v, N %d, incX %d, incY %d, %s, %d instances", cplx, n, incX, incY, lay.name, size)
							b := iters{it: iterVecAt(counts, int64(64-size)/2), counts: counts, n: size}
							if size > 5 {
								// An earlier comp of the pass failed instances 1 and 5.
								b.failed, b.at, b.err = 1<<1|1<<5, 1, errEarlierComp
							}
							gb, wb := entry.run(got.reset(init), &c, b), dotOneByOne(want.reset(init), a, b)
							if !got.equal(want) {
								t.Fatalf("%s: memory differs from dotCore's", cell)
							}
							if gb.failed != wb.failed || (gb.err == nil) != (wb.err == nil) || gb.err != nil && (gb.at != wb.at || gb.err.Error() != wb.err.Error()) {
								t.Fatalf("%s: failed %b at %d with %v, dotCore %b at %d with %v", cell, gb.failed, gb.at, gb.err, wb.failed, wb.at, wb.err)
							}
							if size == 1 || n == 0 {
								continue
							}
							_, ok := dotBlock(probe.reset(init), c.typed.(*DotArgs), b)
							if lay.inside && !ok {
								t.Fatalf("%s: the block body declined hulls inside one region", cell)
							}
							fellBack = fellBack || !ok
						}
						if lay.fall && n > 0 && !fellBack {
							t.Errorf("complex %v, N %d, incX %d, incY %d, %s: no block fell back to the core", cplx, n, incX, incY, lay.name)
						}
					}
				}
			}
		}
	}
}
