package phys

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"mealib/internal/units"
)

// Zero-copy typed views of the simulated physical space.
//
// The space's regions are backed by real process memory, so on a
// little-endian host an accelerator can operate directly on the bytes a
// buffer occupies — the in-memory representation of []float32 IS the
// little-endian wire format the Load/Store accessors implement. A view
// aliases the region storage whenever the span is element-aligned and lies
// inside one region; otherwise (misaligned address, span straddling a
// region boundary, or a big-endian host) it degrades to the copy-in /
// copy-out discipline of Load/Store, and Commit writes the copy back.
//
// Views are the accelerators' fast path: a core that mutates v.Data of an
// aliased view is writing simulated DRAM in place, with no copy at either
// end of the invocation.

// nativeLittleEndian reports whether the host stores multi-byte values in
// little-endian order, i.e. whether region bytes can be reinterpreted as
// typed slices without conversion.
var nativeLittleEndian = func() bool {
	x := uint32(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// viewable reports whether b can be reinterpreted as a slice of elemSize-
// aligned elements without copying.
func viewable(b []byte, elemAlign uintptr) bool {
	if !nativeLittleEndian || len(b) == 0 {
		return nativeLittleEndian && len(b) == 0
	}
	return uintptr(unsafe.Pointer(&b[0]))%elemAlign == 0
}

// f32sOf reinterprets b as float32s. b must satisfy viewable(b, 4) and have
// a length that is a multiple of 4.
func f32sOf(b []byte) []float32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// c64sOf reinterprets b as complex64s (alignment 4, size 8).
func c64sOf(b []byte) []complex64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*complex64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// i32sOf reinterprets b as int32s.
func i32sOf(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

// Float32s returns the region's storage as a float32 slice aliasing the
// region (writes through it are visible to every accessor), or ok=false if
// the host byte order or the region size/alignment rules it out.
func (r *Region) Float32s() ([]float32, bool) {
	if len(r.data)%4 != 0 || !viewable(r.data, 4) {
		return nil, false
	}
	return f32sOf(r.data), true
}

// Complex64s returns the region's storage as a complex64 slice aliasing the
// region, or ok=false if it cannot be viewed.
func (r *Region) Complex64s() ([]complex64, bool) {
	if len(r.data)%8 != 0 || !viewable(r.data, 4) {
		return nil, false
	}
	return c64sOf(r.data), true
}

// Int32s returns the region's storage as an int32 slice aliasing the
// region, or ok=false if it cannot be viewed.
func (r *Region) Int32s() ([]int32, bool) {
	if len(r.data)%4 != 0 || !viewable(r.data, 4) {
		return nil, false
	}
	return i32sOf(r.data), true
}

// gather copies the n bytes at addr, walking contiguously mapped regions
// (the copy fallback for spans that straddle a region boundary). It
// allocates only once the whole span is known to be mapped.
func (s *Space) gather(addr Addr, n int) ([]byte, error) {
	if err := s.mapped(addr, n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := s.copyRange(addr, n, func(dst int, src []byte) { copy(out[dst:], src) }); err != nil {
		return nil, err
	}
	return out, nil
}

// scatter writes b at addr across contiguously mapped regions.
func (s *Space) scatter(addr Addr, b []byte) error {
	return s.copyRange(addr, len(b), func(off int, dst []byte) { copy(dst, b[off:]) })
}

// mapped returns an error unless every byte of [addr, addr+n) is mapped.
func (s *Space) mapped(addr Addr, n int) error {
	return s.copyRange(addr, n, func(int, []byte) {})
}

// copyRange visits the region-backed byte windows covering [addr, addr+n),
// failing if any byte of the range is unmapped.
func (s *Space) copyRange(addr Addr, n int, visit func(off int, window []byte)) error {
	regions := s.regions()
	done := 0
	for done < n {
		r := locate(regions, addr+Addr(done))
		if r == nil {
			return fmt.Errorf("phys: access to unmapped address %s", addr+Addr(done))
		}
		off := int(addr + Addr(done) - r.addr)
		take := len(r.data) - off
		if take > n-done {
			take = n - done
		}
		visit(done, r.data[off:off+take])
		done += take
	}
	return nil
}

// Float32View is n float32 values at a physical address. When Aliased, Data
// is the simulated DRAM itself; otherwise Data is a copy and Commit writes
// it back.
type Float32View struct {
	Data    []float32
	space   *Space
	addr    Addr
	aliased bool
}

// Aliased reports whether the view is zero-copy.
func (v *Float32View) Aliased() bool { return v.aliased }

// Commit propagates a copied view back to the space; aliased views are
// already live and Commit is a no-op.
func (v *Float32View) Commit() error {
	if v.aliased {
		return nil
	}
	return v.space.StoreFloat32s(v.addr, v.Data)
}

// Complex64View is the complex64 analogue of Float32View.
type Complex64View struct {
	Data    []complex64
	space   *Space
	addr    Addr
	aliased bool
}

// Aliased reports whether the view is zero-copy.
func (v *Complex64View) Aliased() bool { return v.aliased }

// Commit propagates a copied view back to the space.
func (v *Complex64View) Commit() error {
	if v.aliased {
		return nil
	}
	return v.space.StoreComplex64s(v.addr, v.Data)
}

// Int32View is the int32 analogue of Float32View.
type Int32View struct {
	Data    []int32
	space   *Space
	addr    Addr
	aliased bool
}

// Aliased reports whether the view is zero-copy.
func (v *Int32View) Aliased() bool { return v.aliased }

// Commit propagates a copied view back to the space.
func (v *Int32View) Commit() error {
	if v.aliased {
		return nil
	}
	return v.space.StoreInt32s(v.addr, v.Data)
}

// ViewFloat32s returns a view of n float32 values at addr: zero-copy when
// the span is 4-byte aligned, inside one region and the host is
// little-endian; a copy (write back with Commit) otherwise.
func (s *Space) ViewFloat32s(addr Addr, n int) (Float32View, error) {
	b, aliased, err := s.loadBytes(addr, n, 4)
	switch {
	case err != nil:
		return Float32View{}, err
	case aliased:
		return Float32View{Data: f32sOf(b), space: s, addr: addr, aliased: true}, nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return Float32View{Data: out, space: s, addr: addr}, nil
}

// ViewComplex64s returns a view of n complex64 values (interleaved re,im
// float32 pairs) at addr, zero-copy when possible.
func (s *Space) ViewComplex64s(addr Addr, n int) (Complex64View, error) {
	b, aliased, err := s.loadBytes(addr, n, 8)
	switch {
	case err != nil:
		return Complex64View{}, err
	case aliased:
		return Complex64View{Data: c64sOf(b), space: s, addr: addr, aliased: true}, nil
	}
	out := make([]complex64, n)
	for i := range out {
		re := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i:]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i+4:]))
		out[i] = complex(re, im)
	}
	return Complex64View{Data: out, space: s, addr: addr}, nil
}

// ViewInt32s returns a view of n int32 values at addr, zero-copy when
// possible.
func (s *Space) ViewInt32s(addr Addr, n int) (Int32View, error) {
	b, aliased, err := s.loadBytes(addr, n, 4)
	switch {
	case err != nil:
		return Int32View{}, err
	case aliased:
		return Int32View{Data: i32sOf(b), space: s, addr: addr, aliased: true}, nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return Int32View{Data: out, space: s, addr: addr}, nil
}

// SpanMapped reports whether every byte of [addr, addr+n) is backed by a
// mapped region (possibly more than one).
func (s *Space) SpanMapped(addr Addr, n units.Bytes) bool {
	return s.mapped(addr, int(n)) == nil
}
