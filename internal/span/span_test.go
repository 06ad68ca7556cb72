package span

import (
	"math/rand"
	"sort"
	"testing"

	"mealib/internal/phys"
	"mealib/internal/units"
)

func spansEqual(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSetMergesOverlapAndAdjacency(t *testing.T) {
	var ss Set
	ss.Add(Span{Addr: 100, Bytes: 10})
	ss.Add(Span{Addr: 200, Bytes: 10})
	ss.Add(Span{Addr: 110, Bytes: 5}) // adjacent to the first
	want := []Span{{Addr: 100, Bytes: 15}, {Addr: 200, Bytes: 10}}
	if !spansEqual(ss.All(), want) {
		t.Fatalf("after adjacency merge: %v, want %v", ss.All(), want)
	}
	// Bridge the gap: one span swallowing both entries.
	ss.Add(Span{Addr: 112, Bytes: 95})
	want = []Span{{Addr: 100, Bytes: 110}}
	if !spansEqual(ss.All(), want) {
		t.Fatalf("after bridging add: %v, want %v", ss.All(), want)
	}
}

func TestSetOutOfOrderInserts(t *testing.T) {
	var ss Set
	ss.Add(Span{Addr: 500, Bytes: 8})
	ss.Add(Span{Addr: 100, Bytes: 8}) // before the existing entry
	ss.Add(Span{Addr: 300, Bytes: 8}) // between
	want := []Span{{Addr: 100, Bytes: 8}, {Addr: 300, Bytes: 8}, {Addr: 500, Bytes: 8}}
	if !spansEqual(ss.All(), want) {
		t.Fatalf("out-of-order inserts: %v, want %v", ss.All(), want)
	}
	ss.Add(Span{Addr: 0, Bytes: 1000})
	want = []Span{{Addr: 0, Bytes: 1000}}
	if !spansEqual(ss.All(), want) {
		t.Fatalf("swallowing insert: %v, want %v", ss.All(), want)
	}
}

func TestSetIgnoresEmpty(t *testing.T) {
	var ss Set
	ss.Add(Span{Addr: 10, Bytes: 0})
	ss.Add(Span{Addr: 10, Bytes: -4})
	if len(ss.All()) != 0 {
		t.Fatalf("empty spans must be ignored, got %v", ss.All())
	}
}

func TestSetSub(t *testing.T) {
	build := func(spans ...Span) *Set {
		var ss Set
		for _, s := range spans {
			ss.Add(s)
		}
		return &ss
	}
	cases := []struct {
		name string
		ss   *Set
		sub  Span
		want []Span
	}{
		{"exact", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 100, Bytes: 10}, nil},
		{"split", build(Span{Addr: 100, Bytes: 100}),
			Span{Addr: 140, Bytes: 20},
			[]Span{{Addr: 100, Bytes: 40}, {Addr: 160, Bytes: 40}}},
		{"trim head", build(Span{Addr: 100, Bytes: 50}),
			Span{Addr: 80, Bytes: 40},
			[]Span{{Addr: 120, Bytes: 30}}},
		{"trim tail", build(Span{Addr: 100, Bytes: 50}),
			Span{Addr: 130, Bytes: 40},
			[]Span{{Addr: 100, Bytes: 30}}},
		{"across several", build(
			Span{Addr: 100, Bytes: 10},
			Span{Addr: 120, Bytes: 10},
			Span{Addr: 140, Bytes: 10}),
			Span{Addr: 105, Bytes: 40},
			[]Span{{Addr: 100, Bytes: 5}, {Addr: 145, Bytes: 5}}},
		{"adjacent untouched", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 110, Bytes: 10},
			[]Span{{Addr: 100, Bytes: 10}}},
		{"disjoint untouched", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 200, Bytes: 10},
			[]Span{{Addr: 100, Bytes: 10}}},
		{"empty ignored", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 100, Bytes: 0},
			[]Span{{Addr: 100, Bytes: 10}}},
	}
	for _, tc := range cases {
		tc.ss.Sub(tc.sub)
		if !spansEqual(tc.ss.All(), tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.ss.All(), tc.want)
		}
	}
}

// TestSetMatchesNaive drives the set with random spans and checks the
// invariants (sorted, disjoint, non-adjacent) and coverage against a naive
// byte map.
func TestSetMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ss Set
	covered := map[phys.Addr]bool{}
	for i := 0; i < 500; i++ {
		addr := phys.Addr(rng.Intn(4096))
		n := units.Bytes(rng.Intn(64) + 1)
		if rng.Intn(4) == 0 {
			ss.Sub(Span{Addr: addr, Bytes: n})
			for b := addr; b < addr+phys.Addr(n); b++ {
				delete(covered, b)
			}
			continue
		}
		ss.Add(Span{Addr: addr, Bytes: n})
		for b := addr; b < addr+phys.Addr(n); b++ {
			covered[b] = true
		}
	}
	spans := ss.All()
	if !sort.SliceIsSorted(spans, func(i, j int) bool { return spans[i].Addr < spans[j].Addr }) {
		t.Fatal("span set not sorted")
	}
	var total units.Bytes
	for i, sp := range spans {
		if sp.Bytes <= 0 {
			t.Fatalf("empty span in set: %v", sp)
		}
		if i > 0 {
			prev := spans[i-1]
			if prev.Addr+phys.Addr(prev.Bytes) >= sp.Addr {
				t.Fatalf("spans %v and %v overlap or touch", prev, sp)
			}
		}
		for b := sp.Addr; b < sp.Addr+phys.Addr(sp.Bytes); b++ {
			if !covered[b] {
				t.Fatalf("byte %v in set but never added", b)
			}
		}
		total += sp.Bytes
	}
	if int(total) != len(covered) {
		t.Fatalf("set covers %d bytes, naive map says %d", total, len(covered))
	}
}

// TestSetSubEdges pins the adjacency and zero-length corners of sub:
// removal treats touching intervals as disjoint (unlike add, where adjacency
// merges), zero- and negative-length removals are no-ops, and removals whose
// boundaries land exactly on interval edges leave no empty remnants.
func TestSetSubEdges(t *testing.T) {
	build := func(spans ...Span) *Set {
		var ss Set
		for _, s := range spans {
			ss.Add(s)
		}
		return &ss
	}
	cases := []struct {
		name string
		ss   *Set
		sub  Span
		want []Span
	}{
		// Adjacency from below: the removal ends exactly where the span
		// begins. add would merge these; sub must not touch it.
		{"adjacent below untouched", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 90, Bytes: 10},
			[]Span{{Addr: 100, Bytes: 10}}},
		// Removal lands exactly between two intervals, touching both edges:
		// neither loses a byte and no empty remnant appears between them.
		{"touching both neighbours", build(
			Span{Addr: 100, Bytes: 10},
			Span{Addr: 120, Bytes: 10}),
			Span{Addr: 110, Bytes: 10},
			[]Span{{Addr: 100, Bytes: 10}, {Addr: 120, Bytes: 10}}},
		// Boundaries aligned with interval edges across several spans: the
		// outer spans survive whole, the middle vanishes, and no zero-length
		// remnant is spliced in at either edge.
		{"exact multi-span cut", build(
			Span{Addr: 100, Bytes: 10},
			Span{Addr: 120, Bytes: 10},
			Span{Addr: 140, Bytes: 10}),
			Span{Addr: 110, Bytes: 30},
			[]Span{{Addr: 100, Bytes: 10}, {Addr: 140, Bytes: 10}}},
		// One-byte removals at each edge and in the middle of one interval.
		{"single byte head", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 100, Bytes: 1},
			[]Span{{Addr: 101, Bytes: 9}}},
		{"single byte tail", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 109, Bytes: 1},
			[]Span{{Addr: 100, Bytes: 9}}},
		{"single byte middle", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 105, Bytes: 1},
			[]Span{{Addr: 100, Bytes: 5}, {Addr: 106, Bytes: 4}}},
		// Zero- and negative-length removals are no-ops wherever they land.
		{"zero length interior", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 105, Bytes: 0},
			[]Span{{Addr: 100, Bytes: 10}}},
		{"zero length at end", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 110, Bytes: 0},
			[]Span{{Addr: 100, Bytes: 10}}},
		{"negative length", build(Span{Addr: 100, Bytes: 10}),
			Span{Addr: 100, Bytes: -4},
			[]Span{{Addr: 100, Bytes: 10}}},
		// Removing from an empty set and removing a superset of everything.
		{"empty set", build(), Span{Addr: 100, Bytes: 10}, nil},
		{"superset clears all", build(
			Span{Addr: 100, Bytes: 10},
			Span{Addr: 200, Bytes: 10}),
			Span{Addr: 0, Bytes: 1000}, nil},
	}
	for _, tc := range cases {
		tc.ss.Sub(tc.sub)
		if !spansEqual(tc.ss.All(), tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, tc.ss.All(), tc.want)
		}
	}
}

// TestOverlapDirections pins the one overlap test on both element kinds:
// plain spans collide on any shared byte, directional spans only when at
// least one side of the pair writes, and empty spans never.
func TestOverlapDirections(t *testing.T) {
	a := Span{Addr: 100, Bytes: 10}
	touching := Span{Addr: 110, Bytes: 10}
	inside := Span{Addr: 105, Bytes: 1}
	rd := func(s Span) Dir { return Dir{Span: s} }
	wr := func(s Span) Dir { return Dir{Span: s, Write: true} }
	cases := []struct {
		name string
		got  bool
		want bool
	}{
		{"plain overlap", Overlap([]Span{a}, []Span{inside}), true},
		{"plain adjacency", Overlap([]Span{a}, []Span{touching}), false},
		{"plain empty", Overlap([]Span{a}, []Span{{Addr: 105}}), false},
		{"any pair of the lists", Overlap([]Span{touching, a}, []Span{{Addr: 0, Bytes: 1}, inside}), true},
		{"read vs read", Overlap([]Dir{rd(a)}, []Dir{rd(inside)}), false},
		{"read vs write", Overlap([]Dir{rd(a)}, []Dir{wr(inside)}), true},
		{"write vs read", Overlap([]Dir{wr(a)}, []Dir{rd(inside)}), true},
		{"write vs disjoint write", Overlap([]Dir{wr(a)}, []Dir{wr(touching)}), false},
		{"plain vs read", Overlap([]Span{a}, []Dir{rd(inside)}), true},
		{"empty lists", Overlap([]Span(nil), []Dir{wr(a)}), false},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: Overlap = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// TestConflict is the one hazard predicate admission, the host-operation
// wait and mealibd's batcher share: two operations conflict when one writes
// bytes the other writes or reads.
//
// Gate (check.sh): the one launch record.
func TestConflict(t *testing.T) {
	a := []Span{{Addr: 100, Bytes: 10}}
	inside := []Span{{Addr: 105, Bytes: 1}}
	touching := []Span{{Addr: 110, Bytes: 10}}
	far := []Span{{Addr: 900, Bytes: 10}}
	cases := []struct {
		name                             string
		aWrites, aReads, bWrites, bReads []Span
		want                             bool
	}{
		{"write/write", a, nil, inside, nil, true},
		{"write/read", a, nil, nil, inside, true},
		{"read/write", nil, a, inside, nil, true},
		{"read/read", nil, a, nil, inside, false},
		{"read/read beside disjoint writes", far, a, touching, inside, false},
		{"all empty", nil, nil, nil, nil, false},
		{"one side empty", a, a, nil, nil, false},
		{"zero-length span", a, nil, []Span{{Addr: 105}}, nil, false},
		{"adjacent writes", a, nil, touching, nil, false},
		{"adjacent write and read", a, nil, nil, touching, false},
		{"any pair of the lists", append(far, a...), nil, nil, append(touching, inside...), true},
	}
	for _, c := range cases {
		if got := Conflict(c.aWrites, c.aReads, c.bWrites, c.bReads); got != c.want {
			t.Errorf("%s: Conflict = %v, want %v", c.name, got, c.want)
		}
		if got := Conflict(c.bWrites, c.bReads, c.aWrites, c.aReads); got != c.want {
			t.Errorf("%s, sides swapped: Conflict = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSetOverlaps is the table for the binary search, and a sweep holding it
// to the linear scan it replaces.
//
// Gate (check.sh): the compiled plan.
func TestSetOverlaps(t *testing.T) {
	var empty, ss Set
	for _, s := range []Span{{Addr: 100, Bytes: 10}, {Addr: 200, Bytes: 10}, {Addr: 300, Bytes: 10}} {
		ss.Add(s)
	}
	for _, tc := range []struct {
		name string
		set  *Set
		s    Span
		want bool
	}{
		{"empty set", &empty, Span{Addr: 0, Bytes: 1 << 40}, false},
		{"adjacent below the first member", &ss, Span{Addr: 90, Bytes: 10}, false},
		{"adjacent above the last member", &ss, Span{Addr: 310, Bytes: 10}, false},
		{"adjacent on both sides, in a gap", &ss, Span{Addr: 110, Bytes: 90}, false},
		{"first byte of the first member", &ss, Span{Addr: 95, Bytes: 6}, true},
		{"last byte of the last member", &ss, Span{Addr: 309, Bytes: 50}, true},
		{"covering several members", &ss, Span{Addr: 150, Bytes: 200}, true},
		{"covering every member", &ss, Span{Addr: 0, Bytes: 1000}, true},
		{"inside a member", &ss, Span{Addr: 203, Bytes: 2}, true},
		{"empty span inside a member", &ss, Span{Addr: 203, Bytes: 0}, false},
		{"negative span inside a member", &ss, Span{Addr: 203, Bytes: -2}, false},
	} {
		if got := tc.set.Overlaps(tc.s); got != tc.want {
			t.Errorf("%s: Overlaps(%v) = %v, want %v", tc.name, tc.s, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		var set Set
		for n := rng.Intn(6); n > 0; n-- {
			set.Add(Span{Addr: phys.Addr(rng.Intn(64)), Bytes: units.Bytes(rng.Intn(8))})
		}
		s := Span{Addr: phys.Addr(rng.Intn(64)), Bytes: units.Bytes(rng.Intn(10) - 1)}
		want := false
		for _, m := range set.All() {
			want = want || m.Overlaps(s)
		}
		if got := set.Overlaps(s); got != want {
			t.Fatalf("trial %d: %v.Overlaps(%v) = %v, the scan says %v", trial, set.All(), s, got, want)
		}
	}
}
