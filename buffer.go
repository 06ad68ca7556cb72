package mealib

import (
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// within reports whether the n elements at element offset off lie inside a
// buffer of size elements, in arithmetic that cannot overflow.
func within(off, n, size int) bool { return off >= 0 && n >= 0 && off <= size-n }

// Float32Buffer is a physically contiguous accelerator-visible buffer of
// float32 elements.
type Float32Buffer struct {
	buf *mealibrt.Buffer
	n   int
}

// AllocFloat32 allocates an n-element float32 buffer in the local memory
// stack's data space (mealib_mem_alloc).
func (s *System) AllocFloat32(n int) (*Float32Buffer, error) {
	return s.AllocFloat32On(0, n)
}

// AllocFloat32On allocates on an explicit memory stack (paper §3.5).
// Stack 0 is local to the accelerators; other stacks are remote.
func (s *System) AllocFloat32On(stack, n int) (*Float32Buffer, error) {
	if n <= 0 {
		return nil, errorf("non-positive buffer size %d", n)
	}
	b, err := s.rt.MemAllocOn(stack, units.Bytes(4*n))
	if err != nil {
		return nil, err
	}
	return &Float32Buffer{buf: b, n: n}, nil
}

// Len returns the element count.
func (b *Float32Buffer) Len() int { return b.n }

// Set copies v into the buffer starting at element 0.
func (b *Float32Buffer) Set(v []float32) error {
	if len(v) > b.n {
		return errorf("Set of %d elements into %d-element buffer", len(v), b.n)
	}
	return b.buf.StoreFloat32s(0, v)
}

// SetAt copies v into the buffer starting at element off.
func (b *Float32Buffer) SetAt(off int, v []float32) error {
	if !within(off, len(v), b.n) {
		return errorf("SetAt of %d elements at %d outside %d-element buffer", len(v), off, b.n)
	}
	return b.buf.StoreFloat32s(units.Bytes(4*off), v)
}

// Get copies out n elements starting at element off.
func (b *Float32Buffer) Get(off, n int) ([]float32, error) {
	if !within(off, n, b.n) {
		return nil, errorf("Get of %d elements at %d outside %d-element buffer", n, off, b.n)
	}
	return b.buf.LoadFloat32s(units.Bytes(4*off), n)
}

// All copies out the whole buffer.
func (b *Float32Buffer) All() ([]float32, error) { return b.Get(0, b.n) }

// addr returns the physical address of element off.
func (b *Float32Buffer) addr(off int) phys.Addr {
	return b.buf.PA() + phys.Addr(4*off)
}

// Free releases the buffer.
func (b *Float32Buffer) Free(s *System) error { return s.rt.MemFree(b.buf) }

// Complex64Buffer is a physically contiguous accelerator-visible buffer of
// complex64 elements.
type Complex64Buffer struct {
	buf *mealibrt.Buffer
	n   int
}

// AllocComplex64 allocates an n-element complex64 buffer.
func (s *System) AllocComplex64(n int) (*Complex64Buffer, error) {
	return s.AllocComplex64On(0, n)
}

// AllocComplex64On allocates on an explicit memory stack (paper §3.5).
func (s *System) AllocComplex64On(stack, n int) (*Complex64Buffer, error) {
	if n <= 0 {
		return nil, errorf("non-positive buffer size %d", n)
	}
	b, err := s.rt.MemAllocOn(stack, units.Bytes(8*n))
	if err != nil {
		return nil, err
	}
	return &Complex64Buffer{buf: b, n: n}, nil
}

// Len returns the element count.
func (b *Complex64Buffer) Len() int { return b.n }

// Set copies v into the buffer starting at element 0.
func (b *Complex64Buffer) Set(v []complex64) error {
	if len(v) > b.n {
		return errorf("Set of %d elements into %d-element buffer", len(v), b.n)
	}
	return b.buf.StoreComplex64s(0, v)
}

// Get copies out n elements starting at element off.
func (b *Complex64Buffer) Get(off, n int) ([]complex64, error) {
	if !within(off, n, b.n) {
		return nil, errorf("Get of %d elements at %d outside %d-element buffer", n, off, b.n)
	}
	return b.buf.LoadComplex64s(units.Bytes(8*off), n)
}

// All copies out the whole buffer.
func (b *Complex64Buffer) All() ([]complex64, error) { return b.Get(0, b.n) }

func (b *Complex64Buffer) addr(off int) phys.Addr {
	return b.buf.PA() + phys.Addr(8*off)
}

// Free releases the buffer.
func (b *Complex64Buffer) Free(s *System) error { return s.rt.MemFree(b.buf) }

// Int32Buffer holds CSR index arrays for the SPMV accelerator.
type Int32Buffer struct {
	buf *mealibrt.Buffer
	n   int
}

// AllocInt32 allocates an n-element int32 buffer.
func (s *System) AllocInt32(n int) (*Int32Buffer, error) {
	if n <= 0 {
		return nil, errorf("non-positive buffer size %d", n)
	}
	b, err := s.rt.MemAlloc(units.Bytes(4 * n))
	if err != nil {
		return nil, err
	}
	return &Int32Buffer{buf: b, n: n}, nil
}

// Len returns the element count.
func (b *Int32Buffer) Len() int { return b.n }

// Set copies v into the buffer.
func (b *Int32Buffer) Set(v []int32) error {
	if len(v) > b.n {
		return errorf("Set of %d elements into %d-element buffer", len(v), b.n)
	}
	return b.buf.StoreInt32s(0, v)
}

// All copies out the whole buffer.
func (b *Int32Buffer) All() ([]int32, error) { return b.buf.LoadInt32s(0, b.n) }

func (b *Int32Buffer) addr() phys.Addr { return b.buf.PA() }

// Free releases the buffer.
func (b *Int32Buffer) Free(s *System) error { return s.rt.MemFree(b.buf) }
