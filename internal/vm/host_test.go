package vm

import (
	"testing"

	"mealib/internal/phys"
	"mealib/internal/units"
)

// newHostDriver builds a driver with a small stack and a staging carve-out,
// returning the backing space so tests can verify window mappings directly.
func newHostDriver(t *testing.T) (*Driver, *phys.Space) {
	t.Helper()
	space := phys.NewSpace(4 * units.GiB)
	d, err := NewDriver(space, Config{
		DataBase:    0x1000_0000,
		DataSize:    1 * units.MiB,
		CmdBase:     0x8000_0000,
		CmdSize:     1 * units.MiB,
		StagingSize: 128 * units.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, space
}

func TestAllocHostWindowPlacement(t *testing.T) {
	d, space := newHostDriver(t)
	va, pa, err := d.AllocHost(10 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if !d.InHostWindow(pa) {
		t.Fatalf("host allocation at %v not in host window (base %v)", pa, d.hostWindowBase())
	}
	if pa < 0x8000_0000+phys.Addr(1*units.MiB) {
		t.Fatalf("host window %v overlaps a carve-out", pa)
	}
	// Stack and command addresses must not read as host-backed.
	if d.InHostWindow(0x1000_0000) || d.InHostWindow(0x8000_0000) {
		t.Fatal("carve-out addresses classified as host window")
	}
	// The window range is really mapped: host Store/Load work through it.
	want := []float32{1, 2, 3, 4}
	if err := space.StoreFloat32s(pa, want); err != nil {
		t.Fatal(err)
	}
	got, err := space.LoadFloat32s(pa, len(want))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window round trip: got %v, want %v", got, want)
		}
	}
	// The virtual mapping resolves to the window address like any other.
	if rpa, err := d.Translate(va); err != nil || rpa != pa {
		t.Fatalf("Translate(%v) = %v, %v; want %v", va, rpa, err, pa)
	}
	if d.hostUsed == 0 {
		t.Fatal("HostUsed did not account the allocation")
	}
}

// TestAllocHostFreeReusesWindow pins the size-class free list: alloc/free
// churn at one size must recycle window addresses instead of bumping the
// window forever.
func TestAllocHostFreeReusesWindow(t *testing.T) {
	d, _ := newHostDriver(t)
	va1, pa1, err := d.AllocHost(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(va1); err != nil {
		t.Fatal(err)
	}
	if d.hostUsed != 0 {
		t.Fatalf("HostUsed = %v after free, want 0", d.hostUsed)
	}
	_, pa2, err := d.AllocHost(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pa2 != pa1 {
		t.Fatalf("same-size realloc got %v, want recycled %v", pa2, pa1)
	}
	// A different size class must not steal the freed range.
	if err := d.Free(mustVA(t, d, pa2)); err != nil {
		t.Fatal(err)
	}
	_, pa3, err := d.AllocHost(32 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pa3 == pa1 {
		t.Fatalf("32 KiB alloc reused the 64 KiB range %v", pa3)
	}
}

// mustVA reverse-maps a physical window address to its VAddr through the
// page table (tests only allocate a handful of mappings).
func mustVA(t *testing.T, d *Driver, pa phys.Addr) VAddr {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, m := range d.pt.maps {
		if m.paddr == pa {
			return m.vaddr
		}
	}
	t.Fatalf("no mapping for %v", pa)
	return 0
}

func TestAllocHostGuardPages(t *testing.T) {
	d, _ := newHostDriver(t)
	_, pa1, err := d.AllocHost(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	_, pa2, err := d.AllocHost(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if gap := pa2 - pa1; gap < phys.Addr(4*units.KiB+PageSize) {
		t.Fatalf("adjacent window allocations %v apart, want a guard page between", gap)
	}
}

func TestAllocHostRejectsNonPositive(t *testing.T) {
	d, _ := newHostDriver(t)
	if _, _, err := d.AllocHost(0); err == nil {
		t.Fatal("zero-byte host allocation must fail")
	}
	if _, _, err := d.AllocHost(-4); err == nil {
		t.Fatal("negative host allocation must fail")
	}
}
