package vm

import (
	"fmt"

	"mealib/internal/phys"
	"mealib/internal/units"
)

// Host-backed allocations: the out-of-core backing store (paper §3.3 calls
// the stack-resident carve-outs "reserved physically contiguous memory";
// everything above them is ordinary host DRAM). A host-backed buffer lives
// in the host window — the tail of the physical space past every stack and
// command carve-out — where the CPU can reach it through its virtual
// mapping but the accelerators cannot: no TSV route exists to host DRAM, so
// a descriptor naming a host-window address must first be split into
// chunked launches over the staging region (internal/accel's PlanOOC). The
// window turns the fixed-capacity stack into a cache: stack residency
// becomes a performance property, not a correctness ceiling.

// AllocHost reserves a host-backed range: virtually mapped like any other
// allocation, physically placed in the host window. The returned physical
// address is a placeholder the runtime embeds in descriptors exactly like a
// stack address — span tracking, verification and admission treat it as a
// number — but it must never reach an executing accelerator.
func (d *Driver) AllocHost(n units.Bytes) (VAddr, phys.Addr, error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("vm: non-positive allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n = roundPages(n)
	// Reuse a freed window range of the same (page-rounded) size before
	// bumping, so alloc/free churn cannot exhaust the window address space.
	pa, reused := phys.Addr(0), false
	if frees := d.hostFree[n]; len(frees) > 0 {
		pa, reused = frees[len(frees)-1], true
		d.hostFree[n] = frees[:len(frees)-1]
	} else {
		pa = d.hostNext
	}
	if _, err := d.space.Map(pa, n); err != nil {
		if reused {
			d.hostFree[n] = append(d.hostFree[n], pa)
		}
		return 0, 0, fmt.Errorf("vm: host-backed store exhausted: %w", err)
	}
	va := d.next
	d.next += VAddr(n) + VAddr(PageSize) // guard page between mappings
	if err := d.pt.insert(mapping{vaddr: va, paddr: pa, size: n}); err != nil {
		_ = d.space.Unmap(pa)
		return 0, 0, err
	}
	if !reused {
		d.hostNext += phys.Addr(n + PageSize) // guard page in the window too
	}
	d.hostUsed += n
	return va, pa, nil
}

// InHostWindow reports whether the physical address is a host-backed
// placeholder rather than stack or command memory.
func (d *Driver) InHostWindow(a phys.Addr) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return a >= d.hostBase
}

// hostWindowBase returns the first physical address of the host window.
func (d *Driver) hostWindowBase() phys.Addr {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostBase
}
