package phys

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	if err := Store(s, 0x1000, []float32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := ViewOf[float32](s, 0x1000, 4)
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
	if err := Store(s, 0x1000, []float32{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	// 0x1002 is not 4-byte aligned: the view must copy, and Commit must
	// write back.
	v, err := ViewOf[float32](s, 0x1002, 2)
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
	if err := Store(s, 0x1ff8, want[:2]); err != nil {
		t.Fatal(err)
	}
	if err := Store(s, 0x2000, want[2:]); err != nil {
		t.Fatal(err)
	}
	v, err := ViewOf[float32](s, 0x1ff8, 4)
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
	if _, err := ViewOf[float32](s, 0x8000, 4); err == nil {
		t.Fatal("view of unmapped span must fail")
	}
	// A span running past the last mapped byte must also fail, even though
	// it starts inside a region.
	if _, err := ViewOf[float32](s, 0x2ffc, 2); err == nil {
		t.Fatal("view crossing into unmapped space must fail")
	}
}

func TestViewComplex64s(t *testing.T) {
	s := viewSpace(t)
	want := []complex64{complex(1, 2), complex(3, 4)}
	if err := Store(s, 0x1000, want); err != nil {
		t.Fatal(err)
	}
	v, err := ViewOf[complex64](s, 0x1000, 2)
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
	got, err := Load[complex64](s, 0x1000, 1)
	if err != nil || got[0] != complex(9, 9) {
		t.Fatalf("after commit = %v, %v; want (9+9i)", got, err)
	}
}

func TestViewInt32s(t *testing.T) {
	s := viewSpace(t)
	if err := Store(s, 0x1000, []int32{-5, 6}); err != nil {
		t.Fatal(err)
	}
	v, err := ViewOf[int32](s, 0x1000, 2)
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
	got, err := Load[int32](s, 0x1004, 1)
	if err != nil || got[0] != 100 {
		t.Fatalf("after commit = %v, %v; want 100", got, err)
	}
}

// TestRegionTypedAccessors: a view of a whole region, of any element type,
// aliases the region's storage, and a write through it is visible to every
// other accessor.
func TestRegionTypedAccessors(t *testing.T) {
	s := NewSpace(1 * units.MiB)
	r, err := s.Map(0x0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := Store(s, 0, []float32{1.5}); err != nil {
		t.Fatal(err)
	}
	f, err := ViewOf[float32](s, r.Addr(), 16)
	if err != nil || !f.Aliased() || f.Data[0] != 1.5 {
		t.Fatalf("float32 view of the region = %v, aliased %v, %v", f.Data, f.Aliased(), err)
	}
	if c, err := ViewOf[complex64](s, r.Addr(), 8); err != nil || !c.Aliased() {
		t.Fatalf("complex64 view of the region: aliased %v, %v", c.Aliased(), err)
	}
	if i, err := ViewOf[int32](s, r.Addr(), 16); err != nil || !i.Aliased() || i.Data[0] != int32(math.Float32bits(1.5)) {
		t.Fatalf("int32 view of the region = %v, aliased %v, %v", i.Data, i.Aliased(), err)
	}
	f.Data[1] = 2.5
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

// words returns the 32-bit words of a typed slice, the real word of a
// complex64 before its imaginary one.
func words(v any) []uint32 {
	var out []uint32
	switch v := v.(type) {
	case []float32:
		for _, x := range v {
			out = append(out, math.Float32bits(x))
		}
	case []int32:
		for _, x := range v {
			out = append(out, uint32(x))
		}
	case []complex64:
		for _, x := range v {
			out = append(out, math.Float32bits(real(x)), math.Float32bits(imag(x)))
		}
	}
	return out
}

// elemRow is one case of TestTypedCopiesEveryPath: where n elements go,
// whether a view of them aliases the space, how often a store of them
// allocates, and whether the access must fail instead.
type elemRow struct {
	name    string
	addr    Addr
	n       int
	aliased bool
	allocs  float64
	fails   bool
}

// elemRows are the cases every element type runs through, in viewSpace:
// two adjacent 4 KiB regions at 0x1000 and 0x2000, nothing mapped after.
var elemRows = []elemRow{
	{name: "aliased", addr: 0x1100, n: len(bitPatterns), aliased: true},
	{name: "misaligned", addr: 0x1102, n: len(bitPatterns)},
	{name: "across a region seam", addr: 0x2000 - 24, n: len(bitPatterns), allocs: 1},
	{name: "zero length", addr: 0x1100, aliased: true},
	{name: "unmapped", addr: 0x8000, n: 2, fails: true},
	{name: "running off the last region", addr: 0x2ffc, n: 2, fails: true},
	{name: "negative count", addr: 0x1100, n: -1, fails: true},
	{name: "count of 2^61", addr: 0x1100, n: 1 << 61, fails: true},
	{name: "count of 2^62", addr: 0x1100, n: 1 << 62, fails: true},
	{name: "count of MaxInt", addr: 0x1100, n: math.MaxInt, fails: true},
}

// TestTypedCopiesEveryPath is one table over the three element types: each
// row stores, views and loads float32, int32 and complex64 values through
// the aliased path (aligned, inside one region), the word loop (a
// misaligned address; an aligned span across the region seam at 0x2000),
// an empty span, and spans that must fail (unmapped; a count whose byte
// size does not fit an int, which wrapped would pass the region check and
// ask makeslice for 2^62 elements). Every path that succeeds leaves the
// little-endian words in the space, reads the same bits back (NaN
// payloads, -0 and subnormals included), and stores without allocating
// except for the seam's one scratch buffer; a failing one writes nothing.
func TestTypedCopiesEveryPath(t *testing.T) {
	f32 := make([]float32, len(bitPatterns))
	i32 := make([]int32, len(bitPatterns))
	c64 := make([]complex64, len(bitPatterns))
	for i, p := range bitPatterns {
		f32[i] = math.Float32frombits(p)
		i32[i] = int32(p)
		c64[i] = complex(math.Float32frombits(p), math.Float32frombits(bitPatterns[len(bitPatterns)-1-i]))
	}
	for _, row := range elemRows {
		t.Run(row.name, func(t *testing.T) {
			checkElemRow(t, row, f32)
			checkElemRow(t, row, i32)
			checkElemRow(t, row, c64)
		})
	}
}

func checkElemRow[T Elem](t *testing.T, row elemRow, all []T) {
	t.Helper()
	s := viewSpace(t)
	kind := fmt.Sprintf("%T", all[0])
	if row.fails {
		// A slice cannot be as long as an overflowing count, so only the
		// unmapped rows have a store to refuse.
		if row.n > 0 && row.n <= len(all) && Store(s, row.addr, all[:row.n]) == nil {
			t.Errorf("%s: a store of %d elements succeeded", kind, row.n)
		}
		if _, err := ViewOf[T](s, row.addr, row.n); err == nil {
			t.Errorf("%s: a view of %d elements succeeded", kind, row.n)
		}
		if _, err := Load[T](s, row.addr, row.n); err == nil {
			t.Errorf("%s: a load of %d elements succeeded", kind, row.n)
		}
		if b, err := s.gather(0x1000, 0x2000); err != nil || !bytes.Equal(b, make([]byte, 0x2000)) {
			t.Errorf("%s: a refused access changed the space", kind)
		}
		return
	}
	v := all[:row.n]
	want := words(v)
	if err := Store(s, row.addr, v); err != nil {
		t.Fatalf("%s: store: %v", kind, err)
	}
	var wantBytes []byte
	for _, w := range want {
		wantBytes = binary.LittleEndian.AppendUint32(wantBytes, w)
	}
	if got, err := s.gather(row.addr, len(wantBytes)); err != nil || !bytes.Equal(got, wantBytes) {
		t.Errorf("%s: space holds % x, %v; want % x", kind, got, err, wantBytes)
	}
	view, err := ViewOf[T](s, row.addr, row.n)
	if err != nil || view.Aliased() != row.aliased || !slices.Equal(words(view.Data), want) {
		t.Errorf("%s: view = %#x, aliased %v, %v; want %#x, aliased %v", kind, words(view.Data), view.Aliased(), err, want, row.aliased)
	}
	back, err := Load[T](s, row.addr, row.n)
	if err != nil || len(back) != row.n || !slices.Equal(words(back), want) {
		t.Errorf("%s: load = %#x, %v; want %#x", kind, words(back), err, want)
	}
	if avg := testing.AllocsPerRun(20, func() { _ = Store(s, row.addr, v) }); avg != row.allocs {
		t.Errorf("%s: a store allocates %v times, want %v", kind, avg, row.allocs)
	}
}
