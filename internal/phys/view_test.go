package phys

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"mealib/internal/units"
)

// viewSpace maps two adjacent regions so that spans can straddle the seam,
// plus a gap after them.
func viewSpace(t *testing.T) *Space {
	t.Helper()
	s := NewSpace(1 * units.MiB)
	if _, err := s.Map(0x1000, 0x1000); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Map(0x2000, 0x1000); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestViewFloat32sAliasesRegion(t *testing.T) {
	s := viewSpace(t)
	if err := s.StoreFloat32s(0x1000, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := s.ViewFloat32s(0x1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Aliased() {
		t.Fatal("aligned single-region span must alias")
	}
	if v.Data[2] != 3 {
		t.Fatalf("view read = %v, want 3", v.Data[2])
	}
	// Writes through the view are visible without Commit.
	v.Data[0] = 42
	got, err := s.ReadFloat32(0x1000)
	if err != nil || got != 42 {
		t.Fatalf("after view write: ReadFloat32 = %v, %v; want 42", got, err)
	}
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestViewFloat32sUnalignedFallsBack(t *testing.T) {
	s := viewSpace(t)
	if err := s.StoreFloat32s(0x1000, []float32{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// 0x1002 is not 4-byte aligned: the view must copy, and Commit must
	// write back.
	v, err := s.ViewFloat32s(0x1002, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Aliased() {
		t.Fatal("misaligned span must not alias")
	}
	v.Data[0] = 7
	// Not committed yet: the space still holds the old bytes.
	raw, err := s.ViewBytes(0x1002, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), raw...)
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	after, err := s.ViewBytes(0x1002, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Fatal("Commit did not write the copy back")
	}
}

func TestViewStraddlingRegionsFallsBack(t *testing.T) {
	s := viewSpace(t)
	want := []float32{10, 20, 30, 40}
	// 0x1FF8..0x2008 straddles the region seam at 0x2000.
	if err := s.StoreFloat32s(0x1ff8, want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.StoreFloat32s(0x2000, want[2:]); err != nil {
		t.Fatal(err)
	}
	v, err := s.ViewFloat32s(0x1ff8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.Aliased() {
		t.Fatal("region-straddling span must not alias")
	}
	for i := range want {
		if v.Data[i] != want[i] {
			t.Fatalf("straddling view[%d] = %v, want %v", i, v.Data[i], want[i])
		}
	}
	v.Data[1] = -1
	v.Data[2] = -2
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	a, err := s.ReadFloat32(0x1ffc)
	if err != nil || a != -1 {
		t.Fatalf("write-back below seam = %v, %v; want -1", a, err)
	}
	b, err := s.ReadFloat32(0x2000)
	if err != nil || b != -2 {
		t.Fatalf("write-back above seam = %v, %v; want -2", b, err)
	}
}

func TestViewUnmappedFails(t *testing.T) {
	s := viewSpace(t)
	if _, err := s.ViewFloat32s(0x8000, 4); err == nil {
		t.Fatal("view of unmapped span must fail")
	}
	// A span running past the last mapped byte must also fail, even though
	// it starts inside a region.
	if _, err := s.ViewFloat32s(0x2ffc, 2); err == nil {
		t.Fatal("view crossing into unmapped space must fail")
	}
}

func TestViewComplex64s(t *testing.T) {
	s := viewSpace(t)
	want := []complex64{complex(1, 2), complex(3, 4)}
	if err := s.StoreComplex64s(0x1000, want); err != nil {
		t.Fatal(err)
	}
	v, err := s.ViewComplex64s(0x1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if v.Data[i] != want[i] {
			t.Fatalf("complex view[%d] = %v, want %v", i, v.Data[i], want[i])
		}
	}
	v.Data[0] = complex(9, 9)
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadComplex64s(0x1000, 1)
	if err != nil || got[0] != complex(9, 9) {
		t.Fatalf("after commit = %v, %v; want (9+9i)", got, err)
	}
}

func TestViewInt32s(t *testing.T) {
	s := viewSpace(t)
	if err := s.StoreInt32s(0x1000, []int32{-5, 6}); err != nil {
		t.Fatal(err)
	}
	v, err := s.ViewInt32s(0x1000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Data[0] != -5 || v.Data[1] != 6 {
		t.Fatalf("int view = %v, want [-5 6]", v.Data)
	}
	v.Data[1] = 100
	if err := v.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadInt32s(0x1004, 1)
	if err != nil || got[0] != 100 {
		t.Fatalf("after commit = %v, %v; want 100", got, err)
	}
}

func TestRegionTypedAccessors(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	r, err := s.Map(0x0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StoreFloat32s(0, []float32{1.5}); err != nil {
		t.Fatal(err)
	}
	f, ok := r.Float32s()
	if !ok || len(f) != 16 || f[0] != 1.5 {
		t.Fatalf("Region.Float32s = %v (ok=%v)", f, ok)
	}
	c, ok := r.Complex64s()
	if !ok || len(c) != 8 {
		t.Fatalf("Region.Complex64s len = %d (ok=%v), want 8", len(c), ok)
	}
	i32, ok := r.Int32s()
	if !ok || len(i32) != 16 {
		t.Fatalf("Region.Int32s len = %d (ok=%v), want 16", len(i32), ok)
	}
	// Mutations through a region view are visible to space accessors.
	f[1] = 2.5
	got, err := s.ReadFloat32(4)
	if err != nil || got != 2.5 {
		t.Fatalf("after region view write = %v, %v; want 2.5", got, err)
	}
}

func TestSpanMapped(t *testing.T) {
	s := viewSpace(t)
	if !s.SpanMapped(0x1ff0, 0x20) {
		t.Error("span across the seam of two mapped regions must count as mapped")
	}
	if s.SpanMapped(0x2ff0, 0x20) {
		t.Error("span running off the last region must not count as mapped")
	}
	if s.SpanMapped(0x4000, 1) {
		t.Error("unmapped address must not count as mapped")
	}
}

// bitPatterns are float32 encodings a typed copy must carry unchanged:
// signed zeros, NaNs with payloads, infinities, subnormals and ordinary
// numbers.
var bitPatterns = []uint32{
	0x00000000, 0x80000000, 0x7fc00000, 0xffc00001, 0x7f800001, 0x7fbfffff,
	0x7f800000, 0xff800000, 0x00000001, 0x807fffff, 0x3f800000, 0xc2f6e979,
}

// TestTypedCopiesEveryPath stores, then loads, every element type through
// the aliased path (aligned, inside one region) and through the element
// loop (a misaligned address; an aligned span straddling the region seam at
// 0x2000). Every path must leave the little-endian encoding in the space,
// read the same bits back, and store without allocating except for the
// straddling span's one scratch buffer.
func TestTypedCopiesEveryPath(t *testing.T) {
	s := viewSpace(t)
	paths := []struct {
		name    string
		addr    Addr
		aliased bool
		allocs  float64
	}{
		{"aliased", 0x1100, true, 0},
		{"misaligned", 0x1102, false, 0},
		{"straddling", 0x2000 - 24, false, 1},
	}
	f32 := make([]float32, len(bitPatterns))
	i32 := make([]int32, len(bitPatterns))
	c64 := make([]complex64, len(bitPatterns))
	var want []byte // the words of f32 and i32; c64's are these twice over
	for i, p := range bitPatterns {
		f32[i] = math.Float32frombits(p)
		i32[i] = int32(p)
		c64[i] = complex(math.Float32frombits(p), math.Float32frombits(bitPatterns[len(bitPatterns)-1-i]))
		want = binary.LittleEndian.AppendUint32(want, p)
	}
	var wantC []byte
	for i, p := range bitPatterns {
		wantC = binary.LittleEndian.AppendUint32(wantC, p)
		wantC = binary.LittleEndian.AppendUint32(wantC, bitPatterns[len(bitPatterns)-1-i])
	}
	for _, p := range paths {
		if _, aliased, err := s.loadBytes(p.addr, len(f32), 4); err != nil || aliased != p.aliased {
			t.Fatalf("%s: aliased = %v, %v; want %v", p.name, aliased, err, p.aliased)
		}
		if p.name == "straddling" {
			if _, err := s.slice(p.addr, 4*len(f32)); err == nil {
				t.Fatalf("%s: the span lies inside one region", p.name)
			}
		}
		check := func(kind string, wantBytes []byte, store func() error, load func() ([]uint32, error), words []uint32) {
			t.Helper()
			if err := store(); err != nil {
				t.Fatalf("%s %s: store: %v", p.name, kind, err)
			}
			got, err := s.gather(p.addr, len(wantBytes))
			if err != nil || !bytes.Equal(got, wantBytes) {
				t.Errorf("%s %s: space holds % x, %v; want % x", p.name, kind, got, err, wantBytes)
			}
			back, err := load()
			if err != nil || !slices.Equal(back, words) {
				t.Errorf("%s %s: load = %#x, %v; want %#x", p.name, kind, back, err, words)
			}
			if avg := testing.AllocsPerRun(20, func() { _ = store() }); avg != p.allocs {
				t.Errorf("%s %s: a store allocates %v times, want %v", p.name, kind, avg, p.allocs)
			}
		}
		check("float32", want, func() error { return s.StoreFloat32s(p.addr, f32) }, func() ([]uint32, error) {
			v, err := s.LoadFloat32s(p.addr, len(f32))
			out := make([]uint32, len(v))
			for i, x := range v {
				out[i] = math.Float32bits(x)
			}
			return out, err
		}, bitPatterns)
		check("int32", want, func() error { return s.StoreInt32s(p.addr, i32) }, func() ([]uint32, error) {
			v, err := s.LoadInt32s(p.addr, len(i32))
			out := make([]uint32, len(v))
			for i, x := range v {
				out[i] = uint32(x)
			}
			return out, err
		}, bitPatterns)
		var wordsC []uint32
		for i := 0; i < len(wantC); i += 4 {
			wordsC = append(wordsC, binary.LittleEndian.Uint32(wantC[i:]))
		}
		check("complex64", wantC, func() error { return s.StoreComplex64s(p.addr, c64) }, func() ([]uint32, error) {
			v, err := s.LoadComplex64s(p.addr, len(c64))
			var out []uint32
			for _, x := range v {
				out = append(out, math.Float32bits(real(x)), math.Float32bits(imag(x)))
			}
			return out, err
		}, wordsC)
	}
}
