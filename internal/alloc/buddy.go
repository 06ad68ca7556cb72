// Package alloc provides the physically-contiguous memory allocator behind
// MEALib's memory management runtime (paper §3.3). The accelerators have no
// MMU, so every buffer they touch must be physically contiguous; the device
// driver reserves a physical range and carves buffers out of it with the
// buddy allocator implemented here.
package alloc

import (
	"errors"
	"fmt"
	"math/bits"

	"mealib/internal/phys"
	"mealib/internal/units"
)

// MinBlock is the smallest allocatable block (one 4 KiB frame).
const MinBlock = 4 * units.KiB

// Typed allocation failures. Callers branch on these with errors.Is: a
// request no pool of this size could ever satisfy (ErrTooLarge) is a
// capacity fact about the hardware — the runtime's out-of-core path treats
// it as the trigger to fall back to a host-backed allocation — while
// ErrNoSpace is transient fragmentation or exhaustion that a free may cure.
var (
	// ErrTooLarge marks a request bigger than the pool itself: retrying
	// after frees cannot help.
	ErrTooLarge = errors.New("alloc: request exceeds pool capacity")
	// ErrNoSpace marks exhaustion or fragmentation: the pool is out of
	// contiguous blocks right now, but frees can make the request succeed.
	ErrNoSpace = errors.New("alloc: out of contiguous memory")
)

// Buddy is a binary-buddy allocator over a contiguous physical range.
// The zero value is not usable; call NewBuddy.
type Buddy struct {
	base   phys.Addr
	size   units.Bytes
	orders int
	// free[k] holds the offsets (from base) of free blocks of size MinBlock<<k.
	free  []map[uint64]struct{}
	sizes map[uint64]int // allocated offset -> order
	used  units.Bytes
}

// NewBuddy returns an allocator managing [base, base+size). Size must be a
// power-of-two multiple of MinBlock.
func NewBuddy(base phys.Addr, size units.Bytes) (*Buddy, error) {
	if size < MinBlock || size&(size-1) != 0 {
		return nil, fmt.Errorf("alloc: size %s must be a power of two >= %s", size, MinBlock)
	}
	orders := bits.TrailingZeros64(uint64(size / MinBlock))
	b := &Buddy{
		base:   base,
		size:   size,
		orders: orders,
		free:   make([]map[uint64]struct{}, orders+1),
		sizes:  make(map[uint64]int),
	}
	for k := range b.free {
		b.free[k] = make(map[uint64]struct{})
	}
	b.free[orders][0] = struct{}{}
	return b, nil
}

// Base returns the bottom of the managed range.
func (b *Buddy) Base() phys.Addr { return b.base }

// Size returns the managed range size.
func (b *Buddy) Size() units.Bytes { return b.size }

// Used returns the total bytes currently allocated (rounded to block sizes).
func (b *Buddy) Used() units.Bytes { return b.used }

// orderFor returns the smallest order whose block size holds n bytes.
func (b *Buddy) orderFor(n units.Bytes) int {
	if n <= MinBlock {
		return 0
	}
	blocks := uint64((n + MinBlock - 1) / MinBlock)
	k := bits.Len64(blocks - 1)
	return k
}

// BlockSize returns the size of the block that an allocation of n bytes
// actually occupies (internal fragmentation included).
func (b *Buddy) BlockSize(n units.Bytes) units.Bytes {
	return MinBlock << b.orderFor(n)
}

// Alloc reserves a physically contiguous block of at least n bytes and
// returns its base address.
func (b *Buddy) Alloc(n units.Bytes) (phys.Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("alloc: non-positive size %d", n)
	}
	want := b.orderFor(n)
	if want > b.orders {
		return 0, fmt.Errorf("%w: request %s exceeds pool size %s", ErrTooLarge, n, b.size)
	}
	// Find the smallest free block of order >= want.
	k := want
	for k <= b.orders && len(b.free[k]) == 0 {
		k++
	}
	if k > b.orders {
		return 0, fmt.Errorf("%w for %s (used %s of %s)", ErrNoSpace, n, b.used, b.size)
	}
	var off uint64
	for o := range b.free[k] {
		off = o
		break
	}
	delete(b.free[k], off)
	// Split down to the wanted order, releasing upper halves.
	for k > want {
		k--
		buddy := off + uint64(MinBlock)<<k
		b.free[k][buddy] = struct{}{}
	}
	b.sizes[off] = want
	b.used += MinBlock << want
	return b.base + phys.Addr(off), nil
}

// Free releases the block based at addr, coalescing with free buddies.
func (b *Buddy) Free(addr phys.Addr) error {
	if addr < b.base {
		return fmt.Errorf("alloc: free %v below pool base %v", addr, b.base)
	}
	off := uint64(addr - b.base)
	k, ok := b.sizes[off]
	if !ok {
		return fmt.Errorf("alloc: free %v: not an allocated block base", addr)
	}
	delete(b.sizes, off)
	b.used -= MinBlock << k
	for k < b.orders {
		buddy := off ^ uint64(MinBlock)<<k
		if _, free := b.free[k][buddy]; !free {
			break
		}
		delete(b.free[k], buddy)
		if buddy < off {
			off = buddy
		}
		k++
	}
	b.free[k][off] = struct{}{}
	return nil
}

// freeBlocks returns the number of free blocks at each order, mostly for
// tests and fragmentation diagnostics.
func (b *Buddy) freeBlocks() []int {
	out := make([]int, b.orders+1)
	for k := range b.free {
		out[k] = len(b.free[k])
	}
	return out
}
