package tdlcheck

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/tdl"
	"mealib/internal/units"
)

// stridedAxpy is an AXPY whose y operand advances by strideY bytes per trip
// of the innermost hardware loop.
func stridedAxpy(x, y phys.Addr, n, strideY int64) descriptor.Params {
	return accel.AxpyArgs{N: n, Alpha: 1, X: x, Y: y, IncX: 1, IncY: 1,
		LoopStrideY: accel.Lin(strideY)}.Params()
}

func TestRejectWrappingLoopStride(t *testing.T) {
	// At iteration 3 the y span sits past 2^64: base is near the top of the
	// address space and each trip advances it by 2^62 bytes. The machine
	// arithmetic in extend wraps (3 * 2^62 overflows int64), so without the
	// exact interval check the verifier would be reasoning about a garbage
	// span instead of rejecting the loop.
	prog := mustParse(t, `LOOP 4 { PASS { COMP AXPY PARAMS "a" } }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"a": stridedAxpy(bufA, phys.Addr(0xffff_ffff_ffff_f000), 256, 1<<62),
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "wraps the 64-bit physical address space", "operand y", "line 1")
	if !strings.Contains(err.Error(), "(0,0,0,3)") {
		t.Errorf("error %q does not carry the witness iteration", err)
	}
}

func TestRejectUnderflowingLoopStride(t *testing.T) {
	// A negative stride walks y below address zero on the final trip.
	prog := mustParse(t, "# header\nLOOP 4 { PASS { COMP AXPY PARAMS \"a\" } }")
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"a": stridedAxpy(bufB, phys.Addr(0x1000), 256, -0x1000),
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "underflows the physical address space", "operand y", "line 2", "(0,0,0,3)")
}

func TestRejectOperandSizeOverflow(t *testing.T) {
	// 8 * 2^40 * 2^22 = 2^65 bytes: the element-count product overflows the
	// 63-bit size domain, so the machine-width span the verifier would build
	// from it misrepresents what the FFT touches.
	prog := mustParse(t, `PASS { COMP FFT PARAMS "f" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"f": accel.FFTArgs{N: 1 << 40, HowMany: 1 << 22, Src: bufA, Dst: bufB}.Params(),
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "63-bit size domain", "FFT", "line 1")
}

func TestRejectWrappingDescriptorLevel(t *testing.T) {
	// The same wrap caught on the lowered-descriptor path the runtime uses:
	// the error is positioned by invocation index.
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(4); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, stridedAxpy(bufA, phys.Addr(0xffff_ffff_ffff_f000), 256, 1<<62)); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	err := VerifyDescriptor(d)
	wantReject(t, err, "wraps the 64-bit physical address space", "comp 0")
}

func TestAcceptMaxTripLoopWithinBounds(t *testing.T) {
	// A maximal 32-bit trip count with a modest stride stays far inside the
	// address space; exactness must not over-reject it.
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(1 << 20); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, stridedAxpy(bufA, bufB, 256, 4096)); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := VerifyDescriptor(d); err != nil {
		t.Fatalf("in-bounds strided loop rejected: %v", err)
	}
}

func TestRejectWholeLoopExtentOverflow(t *testing.T) {
	// Start and end each stay inside [0, 2^64), but opposite-signed strides
	// on two levels stretch the whole-loop extent past the 63-bit size
	// domain, so ext.Bytes cannot represent it.
	args := accel.AxpyArgs{N: 256, Alpha: 1, X: bufA, Y: phys.Addr(1 << 63), IncX: 1, IncY: 1}
	args.LoopStrideY[descriptor.MaxLoopLevels-1] = 1 << 60
	args.LoopStrideY[descriptor.MaxLoopLevels-2] = -(1 << 60)
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(8, 8); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, args.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	err := VerifyDescriptor(d)
	wantReject(t, err, "whole-loop extent", "63-bit size domain")
}

// TestOperandBytesIsExact checks the checked-arithmetic path of
// operandBytes against the plain exact evaluation on values around every
// overflow boundary: both must accept the same operands with the same size.
func TestOperandBytesIsExact(t *testing.T) {
	edge := []int64{math.MinInt64, math.MinInt64 + 1, -3, -1, 0, 1, 2, 3, 8, 1 << 31, 1 << 32, 1<<61 - 1, 1 << 61, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	for _, n := range edge {
		for _, step := range edge {
			for _, tail := range edge {
				for _, elem := range []int64{0, 1, 4, 8} {
					o := accel.Operand{Name: "v", Elem: elem, N: n, Step: step, Tail: tail}
					want := new(big.Int)
					if n > 0 {
						want.Abs(big.NewInt(step))
						want.Mul(want, big.NewInt(n-1))
						want.Add(want, big.NewInt(tail))
						want.Mul(want, big.NewInt(elem))
					}
					fits := want.Sign() >= 0 && want.IsInt64()
					rejected := false
					got, ok := operandBytes(o, descriptor.OpAXPY, func(string, ...interface{}) { rejected = true })
					if ok != fits || rejected == fits || (fits && int64(got) != want.Int64()) {
						t.Fatalf("operand %+v: got %d, %v; exact value %v", o, got, ok, want)
					}
				}
			}
		}
	}
}

// TestIntervalFitsIsExact holds the checked arithmetic of span.Strided.Extent,
// which checkIntervals asks first, to the exact evaluation on addresses,
// sizes, strides and trip counts around every overflow boundary: whatever it
// certifies the exact path accepts, and on this grid it certifies everything
// the exact path accepts.
//
// Gate (check.sh): the one-walk install.
func TestIntervalFitsIsExact(t *testing.T) {
	addrs := []uint64{0, 1, 1 << 32, 1 << 63, math.MaxUint64 - 8, math.MaxUint64}
	sizes := []int64{0, 1, 8, 1 << 62, math.MaxInt64}
	strides := []int64{math.MinInt64, math.MinInt64 + 1, -(1 << 60), -8, 0, 8, 1 << 60, math.MaxInt64}
	counts := []uint32{0, 1, 2, 8, math.MaxUint32}
	for _, addr := range addrs {
		for _, size := range sizes {
			for _, s0 := range strides {
				for _, s1 := range strides {
					for _, n0 := range counts {
						for _, n1 := range counts {
							o := operand{name: "v"}
							o.Span = Span{Addr: phys.Addr(addr), Bytes: units.Bytes(size)}
							o.Strides[0], o.Strides[descriptor.MaxLoopLevels-1] = s0, s1
							c := comp{op: descriptor.OpAXPY, ops: []operand{o}}
							c.counts[0], c.counts[descriptor.MaxLoopLevels-1] = n0, n1
							var e errs
							checkIntervals(&c, &e)
							// The exact path alone: an operand the certificate
							// cannot be asked about.
							var exact errs
							checkIntervalExact(&c, &c.ops[0], &exact)
							if _, fits := c.ops[0].Extent(c.counts); fits != (len(exact.list) == 0) || len(e.list) != len(exact.list) {
								t.Fatalf("operand %+v under %v: certified %v, checkIntervals reports %d failures, the exact evaluation %v", o, c.counts, fits, len(e.list), exact.err())
							}
						}
					}
				}
			}
		}
	}
}
