package phys

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"mealib/internal/units"
)

// Zero-copy typed views of the simulated physical space.
//
// The space's regions are backed by real process memory, so on a
// little-endian host an accelerator can operate directly on the bytes a
// buffer occupies — the in-memory representation of []float32 IS the
// little-endian wire format Load and Store implement. A view aliases the
// region storage whenever the span is 4-byte aligned and lies inside one
// region; otherwise (misaligned address, span straddling a region
// boundary, or a big-endian host) it degrades to the copy-in / copy-out
// discipline of Load/Store, and Commit writes the copy back.
//
// Views are the accelerators' fast path: a core that mutates v.Data of an
// aliased view is writing simulated DRAM in place, with no copy at either
// end of the invocation.

// Elem is the type of an operand's elements. Every operand in the space is
// a run of little-endian 32-bit words at 4-byte alignment: float32 for
// BLAS, complex64 (the real word, then the imaginary one) for FFT and
// resampling, int32 for CSR indices. One view, load, store and wire
// encoding serves all three.
type Elem interface{ float32 | complex64 | int32 }

// Size is the byte size of one T: 4, or 8 for complex64.
func Size[T Elem]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// cast reinterprets s as a slice of To over the same memory. A []byte must
// satisfy viewable(s, 4) and hold whole elements.
func cast[To, From any](s []From) []To {
	if len(s) == 0 {
		return nil
	}
	var f From
	var t To
	return unsafe.Slice((*To)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(f))/int(unsafe.Sizeof(t)))
}

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

// encode writes v's 32-bit words into b, little-endian, in any host order.
func encode[T Elem](b []byte, v []T) {
	for i, w := range cast[uint32](v) {
		binary.LittleEndian.PutUint32(b[4*i:], w)
	}
}

// decode fills out from the little-endian 32-bit words of b.
func decode[T Elem](out []T, b []byte) {
	w := cast[uint32](out)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}

// Encode returns v in the little-endian layout the space and the mealibd
// wire share.
func Encode[T Elem](v []T) []byte {
	b := make([]byte, len(v)*Size[T]())
	encode(b, v)
	return b
}

// Decode returns the elements b holds in that layout; a trailing partial
// element is ignored.
func Decode[T Elem](b []byte) []T {
	out := make([]T, len(b)/Size[T]())
	decode(out, b)
	return out
}

// Scratch returns n elements of T backed by the 32-bit words of *p, which
// it grows when they are too few. Every element type is whole words, so one
// pool of word slices backs scratch of any of them.
func Scratch[T Elem](p *[]uint32, n int) []T {
	w := n * Size[T]() / 4
	if cap(*p) < w {
		*p = make([]uint32, w)
	}
	*p = (*p)[:w]
	return cast[T](*p)
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

// View is n elements at a physical address. When Aliased, Data is the
// simulated DRAM itself; otherwise Data is a copy and Commit writes it back.
type View[T Elem] struct {
	Data    []T
	space   *Space
	addr    Addr
	aliased bool
}

// Commit propagates a copied view back to the space; aliased views are
// already live and Commit is a no-op.
func (v *View[T]) Commit() error {
	if v.aliased {
		return nil
	}
	return Store(v.space, v.addr, v.Data)
}

// Overlap reports whether a and b both alias the space and share a byte: a
// kernel that writes one while it reads the other would read what it wrote.
func Overlap[T Elem](a, b View[T]) bool {
	if !a.aliased || !b.aliased || len(a.Data) == 0 || len(b.Data) == 0 {
		return false
	}
	return a.addr < b.addr+Addr(len(b.Data)*Size[T]()) && b.addr < a.addr+Addr(len(a.Data)*Size[T]())
}

// ViewOf returns a view of n elements at addr: zero-copy when the span is
// 4-byte aligned, inside one region and the host is little-endian; a copy
// (write back with Commit) otherwise.
func ViewOf[T Elem](s *Space, addr Addr, n int) (View[T], error) {
	b, aliased, err := s.loadBytes(addr, n, Size[T]())
	switch {
	case err != nil:
		return View[T]{}, err
	case aliased:
		return View[T]{Data: cast[T](b), space: s, addr: addr, aliased: true}, nil
	}
	out := make([]T, n)
	decode(out, b)
	return View[T]{Data: out, space: s, addr: addr}, nil
}

// spanMapped reports whether every byte of [addr, addr+n) is backed by a
// mapped region (possibly more than one).
func (s *Space) spanMapped(addr Addr, n units.Bytes) bool {
	return s.mapped(addr, int(n)) == nil
}
