package tdlcheck

import (
	"math"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
)

// fuzzSeed is one input of FuzzVerifyDescriptor: an AXPY in a LOOP.
type fuzzSeed struct {
	n, inc  int64
	x, y    uint64
	strideY int64
	trips   uint32
}

// fuzzSeeds is the fuzzer's seed corpus (the ExposedReads property test runs
// over it too).
var fuzzSeeds = []fuzzSeed{
	{256, 1, 0x1000, 0x11000, 4096, 4},
	{256, 1, 0x1000, 0xffff_ffff_ffff_f000, 1 << 62, 4},
	{1, 1, 0x1000, 1 << 63, 1 << 33, math.MaxUint32},
	{4, 1, 0x1000, 0x2000, -0x1000, 4},
	{math.MaxInt64, math.MaxInt64, 0x1000, 0x11000, 0, 1},
	{256, 1, 0x1000, 0xffff_ffff_ffff_fc00, 0, 1},
}

// descriptor builds the seed's descriptor, or nil when the builder refuses it.
func (s fuzzSeed) descriptor() *descriptor.Descriptor {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(s.trips); err != nil {
		return nil
	}
	args := accel.AxpyArgs{N: s.n, Alpha: 1, X: phys.Addr(s.x), Y: phys.Addr(s.y),
		IncX: s.inc, IncY: 1, LoopStrideY: accel.Lin(s.strideY)}
	if err := d.AddComp(descriptor.OpAXPY, args.Params()); err != nil {
		return nil
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d
}

// FuzzVerifyDescriptor drives the lowered-descriptor verifier with arbitrary
// AXPY-in-LOOP parameters, the shape every interval-analysis corner case
// fits: vector length and increment, wrap-adjacent base addresses, signed
// per-trip strides and maximal trip counts. Two properties must hold for
// every input: verification never panics, and when it accepts, every span it
// hands the runtime (Writes/Reads) is exactly representable — non-negative
// size and an end that does not wrap the 64-bit address space — because the
// initialized-span tracker does machine arithmetic on them unchecked.
func FuzzVerifyDescriptor(f *testing.F) {
	// A well-formed strided loop, then the interval corner cases: a stride
	// whose product with the trip count overflows int64, a max-trip loop, a
	// negative stride walking under address zero, a size-domain overflow,
	// and a span flush against the top of the space.
	for _, s := range fuzzSeeds {
		f.Add(s.n, s.inc, s.x, s.y, s.strideY, s.trips)
	}
	f.Fuzz(func(t *testing.T, n, inc int64, x, y uint64, strideY int64, trips uint32) {
		d := fuzzSeed{n, inc, x, y, strideY, trips}.descriptor()
		if d == nil {
			t.Skip()
		}
		if err := VerifyDescriptor(d); err != nil {
			return // rejected: the verifier did its job
		}
		for name, spansOf := range map[string]func(*descriptor.Descriptor) ([]Span, error){
			"Writes": Writes, "Reads": Reads,
		} {
			spans, err := spansOf(d)
			if err != nil {
				t.Fatalf("%s on a verified descriptor: %v", name, err)
			}
			for _, s := range spans {
				if s.Bytes < 0 {
					t.Errorf("verified descriptor yields %s span %v with negative size", name, s)
				}
				if uint64(s.Addr)+uint64(s.Bytes) < uint64(s.Addr) {
					t.Errorf("verified descriptor yields %s span %v whose end wraps the address space", name, s)
				}
			}
		}
	})
}
