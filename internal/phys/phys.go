// Package phys simulates the unified physical address space shared by the
// host CPU and the memory-side accelerators (paper §3.3). Regions of the
// space are backed by real process memory, so accelerator "hardware" and the
// host library run against the same bytes — exactly the property MEALib's
// shared memory management provides on real silicon.
//
// The space is sparse: only mapped regions consume memory. Accelerators use
// physical addressing; the vm package layers virtual addressing for the host
// on top of this package.
package phys

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mealib/internal/units"
)

// Addr is a physical byte address.
type Addr uint64

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%012x", uint64(a)) }

// Region is a mapped, physically contiguous span of the space.
type Region struct {
	addr Addr
	data []byte
}

// Addr returns the region's base physical address.
func (r *Region) Addr() Addr { return r.addr }

// Size returns the region's length in bytes.
func (r *Region) Size() units.Bytes { return units.Bytes(len(r.data)) }

// Bytes returns the backing storage. The slice aliases the region: writes
// through it are visible to every other accessor.
func (r *Region) Bytes() []byte { return r.data }

func (r *Region) contains(a Addr) bool {
	return a >= r.addr && uint64(a-r.addr) < uint64(len(r.data))
}

func (r *Region) end() Addr { return r.addr + Addr(len(r.data)) }

// Space is a sparse simulated physical address space.
//
// The region table is an immutable snapshot behind an atomic pointer:
// accelerator flights walk it without taking a lock (two wave workers doing
// three accesses per CDOTC used to bounce the reader count's cache line),
// while Map and Unmap, serialised by mu, publish a modified copy — so
// mappings can be created and destroyed while flights run (a multi-tenant
// runtime allocates for one session while another's descriptors execute).
// The region *contents* are not guarded: data races on the simulated DRAM
// bytes are the responsibility of the dependence tracking above (admission
// and wave gating in mealibrt), exactly as on real hardware.
type Space struct {
	size  units.Bytes // fixed at construction
	table atomic.Pointer[[]*Region]
	mu    sync.Mutex // serialises Map and Unmap, the table's writers
}

// NewSpace returns an empty space of the given total size.
func NewSpace(size units.Bytes) *Space {
	return &Space{size: size}
}

// Size returns the capacity of the space.
func (s *Space) Size() units.Bytes { return s.size }

// Mapped returns the total size of all mapped regions.
func (s *Space) Mapped() units.Bytes {
	var total units.Bytes
	for _, r := range s.regions() {
		total += r.Size()
	}
	return total
}

// regions returns the current table: sorted by base address, non-overlapping,
// never modified once published.
func (s *Space) regions() []*Region {
	if t := s.table.Load(); t != nil {
		return *t
	}
	return nil
}

// search returns the index of the first region ending after a: a plain
// binary search, since every access to the space starts with one.
func search(regions []*Region, a Addr) int {
	lo, hi := 0, len(regions)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if regions[m].end() > a {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// locate returns the region of the table containing a, or nil.
func locate(regions []*Region, a Addr) *Region {
	if i := search(regions, a); i < len(regions) && regions[i].contains(a) {
		return regions[i]
	}
	return nil
}

// Map creates a region of the given size at addr. It fails if the region
// would exceed the space or overlap an existing region.
func (s *Space) Map(addr Addr, size units.Bytes) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("phys: map %s: non-positive size %d", addr, size)
	}
	if uint64(addr)+uint64(size) > uint64(s.size) {
		return nil, fmt.Errorf("phys: map %s+%s exceeds space size %s", addr, size, s.size)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.regions()
	i := search(old, addr)
	if i < len(old) && old[i].addr < addr+Addr(size) {
		return nil, fmt.Errorf("phys: map %s+%s overlaps region at %s", addr, size, old[i].addr)
	}
	r := &Region{addr: addr, data: make([]byte, size)}
	next := make([]*Region, 0, len(old)+1)
	next = append(append(append(next, old[:i]...), r), old[i:]...)
	s.table.Store(&next)
	return r, nil
}

// Unmap removes the region based at addr. The address must be a region base.
func (s *Space) Unmap(addr Addr) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.regions()
	i := search(old, addr)
	if i == len(old) || old[i].addr != addr {
		return fmt.Errorf("phys: unmap %s: no region based there", addr)
	}
	next := append(append(make([]*Region, 0, len(old)-1), old[:i]...), old[i+1:]...)
	s.table.Store(&next)
	return nil
}

// Region returns the region containing addr, if any.
func (s *Space) Region(addr Addr) (*Region, bool) {
	r := locate(s.regions(), addr)
	return r, r != nil
}

// window returns the n bytes at addr if they lie inside one region.
func (s *Space) window(addr Addr, n int) ([]byte, bool) {
	r := locate(s.regions(), addr)
	if r == nil || n < 0 || n > len(r.data)-int(addr-r.addr) {
		return nil, false
	}
	off := int(addr - r.addr)
	return r.data[off : off+n], true
}

// slice returns the n bytes at addr, which must lie inside one region.
func (s *Space) slice(addr Addr, n int) ([]byte, error) {
	if b, ok := s.window(addr, n); ok {
		return b, nil
	}
	r := locate(s.regions(), addr)
	if r == nil {
		return nil, fmt.Errorf("phys: access to unmapped address %s", addr)
	}
	return nil, fmt.Errorf("phys: access %s+%d crosses region end %s", addr, n, r.end())
}

// ViewBytes returns a zero-copy view of n bytes at addr.
func (s *Space) ViewBytes(addr Addr, n int) ([]byte, error) { return s.slice(addr, n) }

// ReadBytes returns the n bytes at addr for reading: the region's own bytes
// when they lie inside one region, otherwise a copy gathered across the
// seams. The caller must not write to them.
func (s *Space) ReadBytes(addr Addr, n int) ([]byte, error) {
	b, _, err := s.loadBytes(addr, n, 1)
	return b, err
}

// ReadUint32 reads a little-endian uint32.
func (s *Space) ReadUint32(addr Addr) (uint32, error) {
	b, err := s.slice(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// WriteUint32 writes a little-endian uint32.
func (s *Space) WriteUint32(addr Addr, v uint32) error {
	b, err := s.slice(addr, 4)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(b, v)
	return nil
}

// ReadUint64 reads a little-endian uint64.
func (s *Space) ReadUint64(addr Addr) (uint64, error) {
	b, err := s.slice(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteUint64 writes a little-endian uint64.
func (s *Space) WriteUint64(addr Addr, v uint64) error {
	b, err := s.slice(addr, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// ReadFloat32 reads an IEEE-754 float32.
func (s *Space) ReadFloat32(addr Addr) (float32, error) {
	v, err := s.ReadUint32(addr)
	if err != nil {
		return 0, err
	}
	return math.Float32frombits(v), nil
}

// WriteFloat32 writes an IEEE-754 float32.
func (s *Space) WriteFloat32(addr Addr, v float32) error {
	return s.WriteUint32(addr, math.Float32bits(v))
}

// Typed bulk copies. A span that can be aliased (little-endian host, 4-byte
// aligned, inside one region) is copied through the typed view at memmove
// speed; any other span (a misaligned address, one that straddles a region
// seam, a big-endian host) is converted word by word, which is what a view
// of it already holds. Both give the same bytes in the space and the same
// values out of it.

// Load copies n elements starting at addr.
func Load[T Elem](s *Space, addr Addr, n int) ([]T, error) {
	v, err := ViewOf[T](s, addr, n)
	if err != nil || !v.aliased {
		return v.Data, err
	}
	// make then copy is one allocation the compiler does not zero first.
	out := make([]T, len(v.Data))
	copy(out, v.Data)
	return out, nil
}

// Store copies v into the space starting at addr.
func Store[T Elem](s *Space, addr Addr, v []T) error {
	b, direct, err := s.storeBytes(addr, len(v), Size[T]())
	switch {
	case err != nil:
		return err
	case direct && viewable(b, 4):
		copy(cast[T](b), v)
		return nil
	}
	encode(b, v)
	return s.flush(addr, b, direct)
}

// LoadFloat32s is Load[float32].
func (s *Space) LoadFloat32s(addr Addr, n int) ([]float32, error) { return Load[float32](s, addr, n) }

// StoreFloat32s is Store[float32].
func (s *Space) StoreFloat32s(addr Addr, v []float32) error { return Store(s, addr, v) }

// WriteComplex64 writes one complex64 (re, im) at addr.
func (s *Space) WriteComplex64(addr Addr, v complex64) error {
	return s.WriteUint64(addr, uint64(math.Float32bits(real(v)))|uint64(math.Float32bits(imag(v)))<<32)
}

// loadBytes returns the bytes of n elements of size bytes each at addr and
// whether a typed view may alias them: the region's own bytes when the span
// lies inside one region, otherwise a gathered copy. A count whose byte
// size does not fit an int is refused before any size is computed from it:
// a wrapped size would pass the region check and the caller would then
// allocate n elements.
func (s *Space) loadBytes(addr Addr, n, size int) (b []byte, aliased bool, err error) {
	if n < 0 || n > math.MaxInt/size {
		return nil, false, fmt.Errorf("phys: access to %d elements of %d bytes at %s overflows", n, size, addr)
	}
	if b, ok := s.window(addr, n*size); ok {
		return b, viewable(b, 4), nil
	}
	b, err = s.gather(addr, n*size)
	return b, false, err
}

// storeBytes returns where n elements of size bytes each at addr are
// written: the region's own bytes when the span lies inside one region
// (direct), otherwise a scratch buffer for flush to scatter once it is
// filled. A span with an unmapped byte is refused before anything is
// written.
func (s *Space) storeBytes(addr Addr, n, size int) (b []byte, direct bool, err error) {
	if b, ok := s.window(addr, n*size); ok {
		return b, true, nil
	}
	if err := s.mapped(addr, n*size); err != nil {
		return nil, false, err
	}
	return make([]byte, n*size), false, nil
}

// flush writes a filled storeBytes buffer; a direct one is already in place.
func (s *Space) flush(addr Addr, b []byte, direct bool) error {
	if direct {
		return nil
	}
	return s.scatter(addr, b)
}
