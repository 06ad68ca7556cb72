package vm

import (
	"testing"

	"mealib/internal/phys"
	"mealib/internal/units"
)

func newDriver(t *testing.T) *Driver {
	t.Helper()
	space := phys.NewSpace(4 * units.GiB)
	d, err := NewDriver(space, Config{
		DataBase: 0x1000_0000,
		DataSize: 64 * units.MiB,
		CmdBase:  0x8000_0000,
		CmdSize:  1 * units.MiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAllocDataRoundTrip(t *testing.T) {
	d := newDriver(t)
	va, pa, err := d.allocData(10 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pa < 0x1000_0000 {
		t.Errorf("data allocation at %v outside data space", pa)
	}
	got, err := d.Translate(va)
	if err != nil || got != pa {
		t.Errorf("Translate(%v) = %v, %v; want %v", va, got, err, pa)
	}
	// Mid-buffer translation must offset correctly.
	got, err = d.Translate(va + 4096)
	if err != nil || got != pa+4096 {
		t.Errorf("Translate(base+4096) = %v, %v; want %v", got, err, pa+4096)
	}
	// The physical region must be mapped and writable.
	if err := d.space.WriteFloat32(pa, 1.5); err != nil {
		t.Errorf("write through phys addr: %v", err)
	}
}

func TestCommandSpaceSeparation(t *testing.T) {
	d := newDriver(t)
	_, pcmd, err := d.AllocCommand(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pcmd < 0x8000_0000 {
		t.Errorf("command allocation at %v outside command space", pcmd)
	}
	_, pdata, err := d.allocData(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if pdata >= 0x8000_0000 {
		t.Errorf("data allocation at %v inside command space", pdata)
	}
}

func TestFreeReleasesEverything(t *testing.T) {
	d := newDriver(t)
	va, pa, err := d.allocData(8 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Free(va); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Translate(va); err == nil {
		t.Error("translation must fail after free")
	}
	if _, ok := d.space.Region(pa); ok {
		t.Error("physical region must be unmapped after free")
	}
	if d.dataUsed() != 0 {
		t.Errorf("DataUsed = %v after free", d.dataUsed())
	}
	if err := d.Free(va); err == nil {
		t.Error("double free must fail")
	}
}

func TestCommandFreeReturnsToCommandPool(t *testing.T) {
	d := newDriver(t)
	// Exhaust the 1MiB command pool, free, and re-alloc to prove the free
	// went back to the right pool.
	va, _, err := d.AllocCommand(1 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AllocCommand(4 * units.KiB); err == nil {
		t.Fatal("command pool should be exhausted")
	}
	if err := d.Free(va); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.AllocCommand(1 * units.MiB); err != nil {
		t.Errorf("re-alloc after free failed: %v", err)
	}
}

func TestTranslateUnmapped(t *testing.T) {
	d := newDriver(t)
	if _, err := d.Translate(0xdead000); err == nil {
		t.Error("translating an unmapped address must fail")
	}
}

func TestDistinctMappingsDoNotAlias(t *testing.T) {
	d := newDriver(t)
	va1, pa1, err := d.allocData(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	va2, pa2, err := d.allocData(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if va1 == va2 || pa1 == pa2 {
		t.Fatalf("allocations alias: %v/%v %v/%v", va1, va2, pa1, pa2)
	}
	if err := d.space.WriteFloat32(pa1, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.space.WriteFloat32(pa2, 2); err != nil {
		t.Fatal(err)
	}
	v1, _ := d.space.ReadFloat32(pa1)
	if v1 != 1 {
		t.Error("writes through distinct buffers interfered")
	}
}

func TestAllocErrors(t *testing.T) {
	d := newDriver(t)
	if _, _, err := d.allocData(0); err == nil {
		t.Error("zero-size allocation must fail")
	}
	if _, _, err := d.allocData(128 * units.MiB); err == nil {
		t.Error("allocation beyond the data space must fail")
	}
}
