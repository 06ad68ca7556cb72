package noc

import (
	"testing"
	"testing/quick"

	"mealib/internal/units"
)

func TestMeshShape(t *testing.T) {
	m := MEALibMesh()
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	if m.Tiles() != 16 {
		t.Errorf("tiles = %d, want 16", m.Tiles())
	}
	if m.Links() != 24 {
		t.Errorf("links = %d, want 24 for a 4x4 mesh", m.Links())
	}
}

func TestValidate(t *testing.T) {
	bad := &Config{Width: 0, Height: 4, LinkBW: 1, FlitBytes: 1}
	if err := bad.validate(); err == nil {
		t.Error("zero width must fail")
	}
	bad2 := &Config{Width: 4, Height: 4}
	if err := bad2.validate(); err == nil {
		t.Error("zero bandwidth must fail")
	}
}

func TestStaticPowerMatchesTable5(t *testing.T) {
	// Table 5: NoC (router + link) = 0.095 W.
	got := float64(MEALibMesh().StaticPower())
	if got < 0.085 || got > 0.105 {
		t.Errorf("NoC static power = %.3f W, want ~0.095", got)
	}
}

func TestTileCoord(t *testing.T) {
	m := MEALibMesh()
	c, err := m.tileCoord(0)
	if err != nil || c != (Coord{0, 0}) {
		t.Errorf("tile 0 = %v, %v", c, err)
	}
	c, err = m.tileCoord(5)
	if err != nil || c != (Coord{1, 1}) {
		t.Errorf("tile 5 = %v, %v", c, err)
	}
	c, err = m.tileCoord(15)
	if err != nil || c != (Coord{3, 3}) {
		t.Errorf("tile 15 = %v, %v", c, err)
	}
	if _, err := m.tileCoord(16); err == nil {
		t.Error("tile 16 must be out of range")
	}
	if _, err := m.tileCoord(-1); err == nil {
		t.Error("tile -1 must be out of range")
	}
}

func TestHopsAndRoute(t *testing.T) {
	m := MEALibMesh()
	if h := m.Hops(Coord{0, 0}, Coord{3, 3}); h != 6 {
		t.Errorf("corner-to-corner hops = %d, want 6", h)
	}
	if h := m.Hops(Coord{2, 1}, Coord{2, 1}); h != 0 {
		t.Errorf("self hops = %d, want 0", h)
	}
	route := m.route(Coord{0, 0}, Coord{2, 1})
	want := []Coord{{0, 0}, {1, 0}, {2, 0}, {2, 1}}
	if len(route) != len(want) {
		t.Fatalf("route = %v, want %v", route, want)
	}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("route = %v, want %v (XY order)", route, want)
		}
	}
}

func TestTransfer(t *testing.T) {
	m := MEALibMesh()
	lt, e := m.Transfer(Coord{0, 0}, Coord{0, 0}, units.MiB)
	if lt != 0 || e != 0 {
		t.Error("self transfer must be free (local memory, not NoC)")
	}
	lt, e = m.Transfer(Coord{0, 0}, Coord{1, 0}, 0)
	if lt != 0 || e != 0 {
		t.Error("zero-byte transfer must be free")
	}
	lt1, e1 := m.Transfer(Coord{0, 0}, Coord{1, 0}, 64*units.KiB)
	lt2, e2 := m.Transfer(Coord{0, 0}, Coord{3, 3}, 64*units.KiB)
	if lt1 <= 0 || e1 <= 0 {
		t.Fatal("one-hop transfer must cost something")
	}
	if lt2 <= lt1 || e2 <= e1 {
		t.Error("six hops must cost more than one hop")
	}
	// Energy scales linearly with hops.
	if ratio := float64(e2) / float64(e1); ratio < 5.9 || ratio > 6.1 {
		t.Errorf("energy hop scaling = %.2f, want 6", ratio)
	}
}

func TestPropertyRouteLengthMatchesHops(t *testing.T) {
	m := MEALibMesh()
	f := func(a, b uint8) bool {
		src, err1 := m.tileCoord(int(a) % 16)
		dst, err2 := m.tileCoord(int(b) % 16)
		if err1 != nil || err2 != nil {
			return false
		}
		route := m.route(src, dst)
		return len(route) == m.Hops(src, dst)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHopsSymmetricTriangle(t *testing.T) {
	m := MEALibMesh()
	f := func(a, b, c uint8) bool {
		x, _ := m.tileCoord(int(a) % 16)
		y, _ := m.tileCoord(int(b) % 16)
		z, _ := m.tileCoord(int(c) % 16)
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
