// Package vm simulates the host-side virtual memory support MEALib needs
// (paper §3.3): the accelerators address memory physically and have no MMU,
// so a device driver reserves physically contiguous ranges, and a customized
// mmap maps them into the application's virtual address space. The CPU then
// uses virtual addresses while the accelerator descriptor carries the
// translated physical addresses.
package vm

import (
	"fmt"
	"sort"
	"sync"

	"mealib/internal/alloc"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// PageSize is the translation granule.
const PageSize = 4 * units.KiB

// VAddr is a virtual byte address in the simulated process.
type VAddr uint64

// String renders the address in hex.
func (a VAddr) String() string { return fmt.Sprintf("v0x%012x", uint64(a)) }

// mapping is one mmap'ed contiguous range.
type mapping struct {
	vaddr VAddr
	paddr phys.Addr
	size  units.Bytes
}

func (m mapping) vend() VAddr { return m.vaddr + VAddr(m.size) }

// PageTable translates virtual to physical addresses for ranges installed by
// the driver. Because every MEALib mapping is virtually and physically
// contiguous, the table stores ranges rather than individual pages.
type PageTable struct {
	maps []mapping // sorted by vaddr
}

func (pt *PageTable) insert(m mapping) error {
	i := sort.Search(len(pt.maps), func(i int) bool { return pt.maps[i].vend() > m.vaddr })
	if i < len(pt.maps) && pt.maps[i].vaddr < m.vend() {
		return fmt.Errorf("vm: mapping %v+%v overlaps existing at %v", m.vaddr, m.size, pt.maps[i].vaddr)
	}
	pt.maps = append(pt.maps, mapping{})
	copy(pt.maps[i+1:], pt.maps[i:])
	pt.maps[i] = m
	return nil
}

func (pt *PageTable) lookup(a VAddr) (mapping, bool) {
	i := sort.Search(len(pt.maps), func(i int) bool { return pt.maps[i].vend() > a })
	if i < len(pt.maps) && a >= pt.maps[i].vaddr {
		return pt.maps[i], true
	}
	return mapping{}, false
}

func (pt *PageTable) remove(v VAddr) (mapping, error) {
	i := sort.Search(len(pt.maps), func(i int) bool { return pt.maps[i].vend() > v })
	if i >= len(pt.maps) || pt.maps[i].vaddr != v {
		return mapping{}, fmt.Errorf("vm: unmap %v: no mapping based there", v)
	}
	m := pt.maps[i]
	pt.maps = append(pt.maps[:i], pt.maps[i+1:]...)
	return m, nil
}

// Translate returns the physical address backing the virtual address.
func (pt *PageTable) Translate(a VAddr) (phys.Addr, error) {
	m, ok := pt.lookup(a)
	if !ok {
		return 0, fmt.Errorf("vm: translate %v: not mapped", a)
	}
	return m.paddr + phys.Addr(a-m.vaddr), nil
}

// Driver simulates the MEALib device driver. It owns the reserved physical
// ranges (a command space for accelerator descriptors and per-stack data
// spaces for accelerator buffers), allocates physically contiguous blocks
// from them, backs the blocks in the physical space, and installs virtual
// mappings.
type Driver struct {
	space *phys.Space
	cfg   Config
	// data, cmd, and pt are fixed at install time — the slice header and
	// pool pointers never change after NewDriver. Their *contents*
	// (allocator state, page-table entries) are mutated only under mu.
	data []*alloc.Buddy // one pool per memory stack
	cmd  *alloc.Buddy
	pt   PageTable
	// mu serialises allocator and page-table mutations: concurrent sessions
	// of a multi-tenant runtime allocate and free through one driver.
	mu   sync.Mutex
	next VAddr // bump-pointer virtual allocator
	// Staging region carved from stack 0 (see Config.StagingSize).
	stagingPA   phys.Addr
	stagingSize units.Bytes
	// Host-backed window state (host.go). hostBase is fixed at install
	// time; hostNext, hostUsed and hostFree are guarded by mu.
	hostBase phys.Addr
	hostNext phys.Addr
	hostUsed units.Bytes
	hostFree map[units.Bytes][]phys.Addr
}

// Config describes the physical carve-outs handed to the driver at install
// time (the "reserved physically contiguous memory" of §3.3). Stacks > 1
// places additional data spaces at DataBase + k*DataSize, modelling the
// multiple memory stacks of the paper's Figure 2 (stack 0 is the
// accelerators' Local Memory Stack, the rest are Remote Memory Stacks).
type Config struct {
	DataBase phys.Addr
	DataSize units.Bytes
	CmdBase  phys.Addr
	CmdSize  units.Bytes
	// Stacks is the number of memory stacks (0 or 1 means one).
	Stacks int
	// StagingSize, when non-zero, carves a double-buffered staging region
	// out of stack 0's data space at install time. The runtime uses it to
	// execute descriptors over host-backed (out-of-core) buffers in
	// stack-resident tiles; see Driver.Staging and AllocHost. Zero disables
	// out-of-core support entirely.
	StagingSize units.Bytes
}

// NewDriver installs the driver over the given physical space.
func NewDriver(space *phys.Space, cfg Config) (*Driver, error) {
	if cfg.Stacks < 1 {
		cfg.Stacks = 1
	}
	d := &Driver{
		space:    space,
		cfg:      cfg,
		next:     VAddr(0x7f00_0000_0000), // mmap-style high virtual base
		hostFree: make(map[units.Bytes][]phys.Addr),
	}
	for k := 0; k < cfg.Stacks; k++ {
		base := cfg.DataBase + phys.Addr(units.Bytes(k)*cfg.DataSize)
		pool, err := alloc.NewBuddy(base, cfg.DataSize)
		if err != nil {
			return nil, fmt.Errorf("vm: data space of stack %d: %w", k, err)
		}
		d.data = append(d.data, pool)
	}
	cmd, err := alloc.NewBuddy(cfg.CmdBase, cfg.CmdSize)
	if err != nil {
		return nil, fmt.Errorf("vm: command space: %w", err)
	}
	d.cmd = cmd
	// The host-backed window starts above every reserved carve-out: the
	// remainder of the physical space models ordinary host DRAM, which the
	// accelerators cannot reach but staging transfers can read and write.
	end := cfg.DataBase + phys.Addr(units.Bytes(cfg.Stacks)*cfg.DataSize)
	if cmdEnd := cfg.CmdBase + phys.Addr(cfg.CmdSize); cmdEnd > end {
		end = cmdEnd
	}
	d.hostBase = phys.Addr(roundPages(units.Bytes(end)) + PageSize)
	d.hostNext = d.hostBase
	if cfg.StagingSize > 0 {
		// Carve the staging region out of stack 0's pool so it is accounted
		// as used stack memory, and map it once for the driver's lifetime.
		pa, err := d.data[0].Alloc(cfg.StagingSize)
		if err != nil {
			return nil, fmt.Errorf("vm: staging region: %w", err)
		}
		block := d.data[0].BlockSize(cfg.StagingSize)
		if _, err := space.Map(pa, block); err != nil {
			return nil, fmt.Errorf("vm: staging region: %w", err)
		}
		d.stagingPA, d.stagingSize = pa, block
	}
	return d, nil
}

// Staging returns the base and size of the staging region carved from stack
// 0's data space, or (0, 0) when Config.StagingSize was zero.
func (d *Driver) Staging() (phys.Addr, units.Bytes) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stagingPA, d.stagingSize
}

// Stacks returns the number of memory stacks.
func (d *Driver) Stacks() int { return len(d.data) }

// StackOf returns the memory stack holding the physical address, or -1 if
// the address is outside every data space.
func (d *Driver) StackOf(a phys.Addr) int {
	if a < d.cfg.DataBase {
		return -1
	}
	k := int(units.Bytes(a-d.cfg.DataBase) / d.cfg.DataSize)
	if k >= len(d.data) {
		return -1
	}
	return k
}

// dataUsed reports bytes allocated across all data spaces.
func (d *Driver) dataUsed() units.Bytes {
	d.mu.Lock()
	defer d.mu.Unlock()
	var total units.Bytes
	for _, pool := range d.data {
		total += pool.Used()
	}
	return total
}

// roundPages rounds n up to whole pages.
func roundPages(n units.Bytes) units.Bytes {
	return (n + PageSize - 1) / PageSize * PageSize
}

func (d *Driver) mmap(pool *alloc.Buddy, n units.Bytes) (VAddr, phys.Addr, error) {
	if n <= 0 {
		return 0, 0, fmt.Errorf("vm: non-positive allocation %d", n)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	n = roundPages(n)
	pa, err := pool.Alloc(n)
	if err != nil {
		return 0, 0, err
	}
	block := pool.BlockSize(n)
	if _, err := d.space.Map(pa, block); err != nil {
		// The pool handed us an address the space rejected: unwind.
		_ = pool.Free(pa)
		return 0, 0, err
	}
	va := d.next
	d.next += VAddr(block) + VAddr(PageSize) // guard page between mappings
	if err := d.pt.insert(mapping{vaddr: va, paddr: pa, size: block}); err != nil {
		_ = d.space.Unmap(pa)
		_ = pool.Free(pa)
		return 0, 0, err
	}
	return va, pa, nil
}

// allocData implements the ioctl+mmap path for user buffers: it reserves a
// physically contiguous block in stack 0's data space and maps it. Both the
// virtual (CPU-side) and physical (accelerator-side) addresses are returned.
func (d *Driver) allocData(n units.Bytes) (VAddr, phys.Addr, error) {
	return d.AllocDataOn(0, n)
}

// AllocDataOn reserves a block in the given memory stack's data space
// (paper §3.5: "The memory stack used for allocation can also be explicitly
// specified during memory allocation").
func (d *Driver) AllocDataOn(stack int, n units.Bytes) (VAddr, phys.Addr, error) {
	if stack < 0 || stack >= len(d.data) {
		return 0, 0, fmt.Errorf("vm: no memory stack %d (have %d)", stack, len(d.data))
	}
	return d.mmap(d.data[stack], n)
}

// AllocCommand reserves a block in the command space for an accelerator
// descriptor.
func (d *Driver) AllocCommand(n units.Bytes) (VAddr, phys.Addr, error) {
	return d.mmap(d.cmd, n)
}

// Free releases a mapping created by AllocData or AllocCommand.
func (d *Driver) Free(v VAddr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, err := d.pt.remove(v)
	if err != nil {
		return err
	}
	if err := d.space.Unmap(m.paddr); err != nil {
		return err
	}
	if m.paddr >= d.hostBase {
		// Host-backed range: no buddy pool behind it, only the mapping.
		d.hostUsed -= m.size
		d.hostFree[m.size] = append(d.hostFree[m.size], m.paddr)
		return nil
	}
	if m.paddr >= d.cmd.Base() && m.paddr < d.cmd.Base()+phys.Addr(d.cmd.Size()) {
		return d.cmd.Free(m.paddr)
	}
	stack := d.StackOf(m.paddr)
	if stack < 0 {
		return fmt.Errorf("vm: free of %v outside every data space", m.paddr)
	}
	return d.data[stack].Free(m.paddr)
}

// Translate performs the virtual-to-physical translation the CPU does when
// writing buffer addresses into a descriptor.
func (d *Driver) Translate(v VAddr) (phys.Addr, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pt.Translate(v)
}
