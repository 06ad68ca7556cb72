package mealib

import (
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Elem is the type of a buffer's elements: float32, complex64 or int32,
// each a run of little-endian 32-bit words in the shared memory.
type Elem = phys.Elem

// within reports whether the n elements at element offset off lie inside a
// buffer of size elements, in arithmetic that cannot overflow.
func within(off, n, size int) bool { return off >= 0 && n >= 0 && off <= size-n }

// Buffer is a physically contiguous accelerator-visible buffer of n
// elements of T.
type Buffer[T Elem] struct {
	buf *mealibrt.Buffer
	n   int
}

// The buffers the operations take; Int32Buffer holds CSR index arrays for
// the SPMV accelerator.
type (
	Float32Buffer   = Buffer[float32]
	Complex64Buffer = Buffer[complex64]
	Int32Buffer     = Buffer[int32]
)

// Alloc allocates an n-element buffer in the local memory stack's data
// space (mealib_mem_alloc).
func Alloc[T Elem](s *System, n int) (*Buffer[T], error) {
	return AllocOn[T](s, 0, n)
}

// AllocOn allocates on an explicit memory stack (paper §3.5).
// Stack 0 is local to the accelerators; other stacks are remote.
func AllocOn[T Elem](s *System, stack, n int) (*Buffer[T], error) {
	if n <= 0 {
		return nil, errorf("non-positive buffer size %d", n)
	}
	size, err := mealibrt.ElemBytes[T](n)
	if err != nil {
		return nil, err
	}
	b, err := s.rt.MemAllocOn(stack, size)
	if err != nil {
		return nil, err
	}
	return &Buffer[T]{buf: b, n: n}, nil
}

// Len returns the element count.
func (b *Buffer[T]) Len() int { return b.n }

// Set copies v into the buffer starting at element 0.
func (b *Buffer[T]) Set(v []T) error {
	if len(v) > b.n {
		return errorf("Set of %d elements into %d-element buffer", len(v), b.n)
	}
	return mealibrt.Store(b.buf, 0, v)
}

// SetAt copies v into the buffer starting at element off.
func (b *Buffer[T]) SetAt(off int, v []T) error {
	if !within(off, len(v), b.n) {
		return errorf("SetAt of %d elements at %d outside %d-element buffer", len(v), off, b.n)
	}
	return mealibrt.Store(b.buf, units.Bytes(off*phys.Size[T]()), v)
}

// Get copies out n elements starting at element off.
func (b *Buffer[T]) Get(off, n int) ([]T, error) {
	if !within(off, n, b.n) {
		return nil, errorf("Get of %d elements at %d outside %d-element buffer", n, off, b.n)
	}
	return mealibrt.Load[T](b.buf, units.Bytes(off*phys.Size[T]()), n)
}

// All copies out the whole buffer.
func (b *Buffer[T]) All() ([]T, error) { return b.Get(0, b.n) }

// addr returns the physical address of element off.
func (b *Buffer[T]) addr(off int) phys.Addr {
	return b.buf.PA() + phys.Addr(off*phys.Size[T]())
}

// Free releases the buffer.
func (b *Buffer[T]) Free(s *System) error { return s.rt.MemFree(b.buf) }
