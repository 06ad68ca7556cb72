package phys

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"mealib/internal/units"
)

func TestMapUnmap(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	r, err := s.Map(0x1000, 4096)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if r.Addr() != 0x1000 || r.Size() != 4096 {
		t.Fatalf("region = %v+%v", r.Addr(), r.Size())
	}
	if got := s.mappedBytes(); got != 4096 {
		t.Errorf("Mapped = %v, want 4096", got)
	}
	if err := s.Unmap(0x1000); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
	if got := s.mappedBytes(); got != 0 {
		t.Errorf("Mapped after unmap = %v", got)
	}
}

func TestMapErrors(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 0); err == nil {
		t.Error("zero-size map must fail")
	}
	if _, err := s.Map(60*1024, 8*1024); err == nil {
		t.Error("map past end of space must fail")
	}
	if _, err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	overlaps := []struct {
		a Addr
		n units.Bytes
	}{
		{0x1000, 4096}, // exact
		{0x0, 0x1001},  // tail overlap
		{0x1fff, 16},   // head overlap
		{0x1800, 16},   // inner
	}
	for _, o := range overlaps {
		if _, err := s.Map(o.a, o.n); err == nil {
			t.Errorf("overlapping map at %v+%v must fail", o.a, o.n)
		}
	}
	// Adjacent maps are fine.
	if _, err := s.Map(0x2000, 4096); err != nil {
		t.Errorf("adjacent map failed: %v", err)
	}
	if _, err := s.Map(0x0, 0x1000); err != nil {
		t.Errorf("adjacent-below map failed: %v", err)
	}
}

func TestUnmapErrors(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.Unmap(0x1004); err == nil {
		t.Error("unmap of non-base address must fail")
	}
	if err := s.Unmap(0x9000); err == nil {
		t.Error("unmap of unmapped address must fail")
	}
}

func TestRegionLookup(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0x4000, 4096); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Region(0x4fff); !ok {
		t.Error("last byte of region must be found")
	}
	if _, ok := s.Region(0x5000); ok {
		t.Error("first byte past region must not be found")
	}
	if _, ok := s.Region(0x3fff); ok {
		t.Error("byte before region must not be found")
	}
}

func TestScalarAccess(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 1024); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFloat32(16, 3.25); err != nil {
		t.Fatal(err)
	}
	v, err := s.ReadFloat32(16)
	if err != nil || v != 3.25 {
		t.Errorf("float32 round trip: %v %v", v, err)
	}
	if err := s.WriteUint64(32, 0xdeadbeefcafef00d); err != nil {
		t.Fatal(err)
	}
	u, err := s.ReadUint64(32)
	if err != nil || u != 0xdeadbeefcafef00d {
		t.Errorf("uint64 round trip: %x %v", u, err)
	}
	if _, err := s.ReadUint32(2048); err == nil {
		t.Error("read outside region must fail")
	}
	if _, err := s.ReadUint32(1022); err == nil {
		t.Error("read crossing region end must fail")
	}
}

func TestBulkFloat32(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0x100, 4096); err != nil {
		t.Fatal(err)
	}
	in := []float32{1, -2, 3.5, 0, 1e20}
	if err := s.StoreFloat32s(0x100, in); err != nil {
		t.Fatal(err)
	}
	out, err := s.LoadFloat32s(0x100, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestBulkComplex64(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	in := []complex64{1 + 2i, -3 - 4i, 0, complex(1e10, -1e-10)}
	if err := Store(s, 64, in[:3]); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteComplex64(64+8*3, in[3]); err != nil {
		t.Fatal(err)
	}
	if s.WriteComplex64(4092, 1) == nil || Store(s, 4096, in) == nil {
		t.Error("a complex store past the region must fail")
	}
	out, err := Load[complex64](s, 64, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

// TestLoadComplex64sDecodesOnce: a complex load is one allocation, the
// result, decoded straight from the bytes, and a store then load returns
// every bit pattern it was given, NaN payloads and -0 included.
func TestLoadComplex64sDecodesOnce(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	patterns := []uint32{
		0x00000000, 0x80000000, // +0, -0
		0x7fc00000, 0xffc00001, 0x7f800001, 0x7fbfffff, // quiet and signalling NaNs with payloads
		0x7f800000, 0xff800000, // infinities
		0x00000001, 0x807fffff, // subnormals
		0x3f800000, 0xc2f6e979, // 1, -123.456
	}
	in := make([]complex64, 0, len(patterns)*len(patterns))
	for _, re := range patterns {
		for _, im := range patterns {
			in = append(in, complex(math.Float32frombits(re), math.Float32frombits(im)))
		}
	}
	if err := Store(s, 8, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load[complex64](s, 8, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if gr, wr := math.Float32bits(real(out[i])), math.Float32bits(real(in[i])); gr != wr {
			t.Errorf("element %d real: bits %#08x, want %#08x", i, gr, wr)
		}
		if gi, wi := math.Float32bits(imag(out[i])), math.Float32bits(imag(in[i])); gi != wi {
			t.Errorf("element %d imag: bits %#08x, want %#08x", i, gi, wi)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := Load[complex64](s, 8, len(in)); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("LoadComplex64s allocates %v times a call, want 1", avg)
	}
}

func TestInt32s(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	in := []int32{0, -1, 1 << 30, -(1 << 30)}
	if err := Store(s, 128, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load[int32](s, 128, len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("element %d: got %v want %v", i, out[i], in[i])
		}
	}
}

func TestViewAliasing(t *testing.T) {
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(0, 4096); err != nil {
		t.Fatal(err)
	}
	view, err := s.ViewBytes(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint32(0, 0x01020304); err != nil {
		t.Fatal(err)
	}
	if view[0] != 0x04 || view[3] != 0x01 {
		t.Error("view must alias the space (little endian)")
	}
}

// Property: float32 round trips through the space are exact for all finite
// inputs, and independent mapped regions never interfere.
func TestPropertyFloat32RoundTrip(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0, 512*units.KiB); err != nil { // covers Addr(off)*4 for any uint16 off
		t.Fatal(err)
	}
	f := func(v float32, off uint16) bool {
		a := Addr(off) * 4
		if err := s.WriteFloat32(a, v); err != nil {
			return false
		}
		got, err := s.ReadFloat32(a)
		if err != nil {
			return false
		}
		return got == v || (got != got && v != v) // NaN-safe equality
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSpaceConcurrentMapUnmapAndView: readers take no lock, so views and
// scalar accesses on a mapped region must stay correct while another
// goroutine maps and unmaps its neighbours, and an address whose region is
// gone (or was never there) must still fail. Run under -race.
func TestSpaceConcurrentMapUnmapAndView(t *testing.T) {
	const page = Addr(4096)
	s := NewSpace(64 * units.KiB)
	if _, err := s.Map(4*page, units.Bytes(page)); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		// Neighbours on both sides of the stable region, so its index in the
		// table moves; page 9 is never mapped.
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a := []Addr{3, 5, 1, 7}[i%4] * page
			if _, err := s.Map(a, units.Bytes(page)); err != nil {
				t.Error(err)
				return
			}
			if _, ok := s.Region(a + 8); !ok || s.mappedBytes() != 2*units.Bytes(page) {
				t.Errorf("round %d: the region just mapped at %v is not in the table", i, a)
			}
			if err := s.Unmap(a); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.ViewBytes(a, 8); err == nil {
				t.Errorf("round %d: access to %v succeeded after Unmap", i, a)
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			base := 4*page + Addr(g)*1024 // each reader owns a quarter of the region
			for i := 0; i < 2000; i++ {
				v, err := ViewOf[float32](s, base, 64)
				if err != nil || !v.aliased {
					t.Errorf("reader %d: view of the stable region: aliased %v, %v", g, v.aliased, err)
					return
				}
				v.Data[i%64] = float32(i)
				if got, err := s.ReadFloat32(base + Addr(4*(i%64))); err != nil || got != float32(i) {
					t.Errorf("reader %d: read back %v, %v; want %d", g, got, err, i)
					return
				}
				if err := s.WriteComplex64(base+512, complex(float32(g), float32(i))); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if s.spanMapped(9*page, 8) || s.WriteUint32(9*page, 1) == nil {
					t.Errorf("reader %d: unmapped page 9 accepted an access", g)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	churn.Wait()
	if s.mappedBytes() != units.Bytes(page) {
		t.Errorf("mapped = %v after the churn, want the one stable region", s.mappedBytes())
	}
}

// TestTypedLoadsRefuseOverflowingCounts: a count whose byte size does not fit
// an int is an error. Wrapped, 4·2^62 is 0 bytes, which passes the region
// check, and the load then asked makeslice for 2^62 elements.
func TestTypedLoadsRefuseOverflowingCounts(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 1 << 61, 1 << 62, math.MaxInt} {
		if _, err := s.LoadFloat32s(0x1000, n); err == nil {
			t.Errorf("LoadFloat32s of %d elements succeeded", n)
		}
		if _, err := Load[complex64](s, 0x1000, n); err == nil {
			t.Errorf("LoadComplex64s of %d elements succeeded", n)
		}
		if _, err := Load[int32](s, 0x1000, n); err == nil {
			t.Errorf("LoadInt32s of %d elements succeeded", n)
		}
	}
}

// TestByteAccessRefusesOverflowingCounts: a byte count that runs past the
// largest int from an offset inside a region is an error. Summed with the
// offset it wrapped negative, passed the region check, and the slice
// expression panicked.
func TestByteAccessRefusesOverflowingCounts(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0x1000, 4096); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, math.MaxInt - 4, math.MaxInt} {
		if _, err := s.ViewBytes(0x1008, n); err == nil {
			t.Errorf("ViewBytes of %d bytes succeeded", n)
		}
		if _, err := s.ReadBytes(0x1008, n); err == nil {
			t.Errorf("ReadBytes of %d bytes succeeded", n)
		}
	}
	if b, err := s.ReadBytes(0x1008, 4088); err != nil || len(b) != 4088 {
		t.Errorf("ReadBytes of the region's tail = %d bytes, %v", len(b), err)
	}
}
