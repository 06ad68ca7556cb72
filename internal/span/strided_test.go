package span

import (
	"math"
	"math/big"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// exactExtent is the reference for Extent in math/big: the lowest start and
// highest end any iteration's span reaches, and whether every iteration's
// span lies in [0, 2^64) with an extent whose size fits 63 bits.
func exactExtent(s Strided, counts descriptor.LoopCounts) (start, end *big.Int, ok bool) {
	start = new(big.Int).SetUint64(uint64(s.Addr))
	end = new(big.Int).Add(start, big.NewInt(int64(s.Bytes)))
	for l, c := range counts {
		d := new(big.Int).Mul(big.NewInt(s.Strides[l]), big.NewInt(max(int64(c), 1)-1))
		if d.Sign() < 0 {
			start.Add(start, d)
		} else {
			end.Add(end, d)
		}
	}
	top := new(big.Int).Lsh(big.NewInt(1), 64)
	return start, end, start.Sign() >= 0 && end.Cmp(top) < 0 && new(big.Int).Sub(end, start).IsInt64()
}

// FuzzStridedExtent holds Extent to the exact evaluation: it is ok exactly
// when the exact extent is representable, and then it is that extent. The
// seeds are the corners of the grid tdlcheck's TestIntervalFitsIsExact sweeps.
func FuzzStridedExtent(f *testing.F) {
	for _, addr := range []uint64{0, 1 << 63, math.MaxUint64} {
		for _, size := range []int64{0, 8, math.MaxInt64} {
			for _, st := range []int64{math.MinInt64, -8, 8, math.MaxInt64} {
				for _, n := range []uint32{0, 2, math.MaxUint32} {
					f.Add(addr, size, st, int64(0), int64(0), -st, n, uint32(1), uint32(1), n)
					f.Add(addr, size, st, int64(1<<60), int64(-(1 << 60)), st, uint32(8), uint32(8), n, n)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, addr uint64, size, s0, s1, s2, s3 int64, n0, n1, n2, n3 uint32) {
		if size < 0 {
			t.Skip() // not a span: a byte size is never negative
		}
		s := Strided{Dir: Dir{Span: Span{Addr: phys.Addr(addr), Bytes: units.Bytes(size)}}, Strides: Strides{s0, s1, s2, s3}}
		counts := descriptor.LoopCounts{n0, n1, n2, n3}
		got, ok := s.Extent(counts)
		start, end, fits := exactExtent(s, counts)
		if ok != fits {
			t.Fatalf("%v strides %v over %v: Extent ok = %v, the exact extent [%v, %v) fits = %v", s.Span, s.Strides, counts, ok, start, end, fits)
		}
		if ok && (uint64(got.Addr) != start.Uint64() || int64(got.Bytes) != new(big.Int).Sub(end, start).Int64()) {
			t.Fatalf("%v strides %v over %v: Extent = %v, the exact extent is [%v, %v)", s.Span, s.Strides, counts, got, start, end)
		}
	})
}

// TestStridedAt: At places the span at an iteration, refuses one whose end
// wraps the address space there, and allocates nothing.
func TestStridedAt(t *testing.T) {
	s := Strided{Dir: Dir{Span: Span{Addr: 0x1000, Bytes: 16}, Write: true}, Strides: Strides{0, 0, 1 << 20, -64}}
	if got, ok := s.At(IterVec{0, 0, 2, 3}); !ok || got != (Dir{Span: Span{Addr: 0x1000 + 2<<20 - 3*64, Bytes: 16}, Write: true}) {
		t.Errorf("At((0,0,2,3)) = %v, %v", got, ok)
	}
	top := Strided{Dir: Dir{Span: Span{Addr: math.MaxUint64 - 15, Bytes: 16}}}
	if got, ok := top.At(IterVec{}); ok {
		t.Errorf("a span ending at 2^64 placed at %v", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.At(IterVec{1, 2, 3, 4}) }); allocs != 0 {
		t.Errorf("At allocates %.0f times", allocs)
	}
}

// TestStridesTogether: two accesses advance together when their strides
// agree on every level that iterates; a level of one trip does not count.
func TestStridesTogether(t *testing.T) {
	a, b := Strides{0, 7, 0, 8}, Strides{0, 9, 0, 8}
	if a.Together(b, descriptor.LoopCounts{1, 2, 1, 4}) {
		t.Error("strides differing on an iterating level advance together")
	}
	if !a.Together(b, descriptor.LoopCounts{1, 1, 1, 4}) || !a.Together(b, descriptor.LoopCounts{0, 0, 0, 4}) {
		t.Error("strides differing only on a level of one trip do not advance together")
	}
}
