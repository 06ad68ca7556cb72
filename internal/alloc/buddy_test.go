package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mealib/internal/phys"
	"mealib/internal/units"
)

func mustBuddy(t *testing.T, base phys.Addr, size units.Bytes) *Buddy {
	t.Helper()
	b, err := NewBuddy(base, size)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBuddyValidation(t *testing.T) {
	if _, err := NewBuddy(0, 3*units.KiB); err == nil {
		t.Error("size below MinBlock must fail")
	}
	if _, err := NewBuddy(0, 12*units.KiB); err == nil {
		t.Error("non-power-of-two size must fail")
	}
	if _, err := NewBuddy(0, 1*units.MiB); err != nil {
		t.Errorf("1MiB pool: %v", err)
	}
}

func TestAllocBasic(t *testing.T) {
	b := mustBuddy(t, 0x100000, 64*units.KiB)
	a1, err := b.Alloc(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != 0x100000 {
		t.Errorf("first alloc at %v, want pool base", a1)
	}
	a2, err := b.Alloc(4 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if a2 == a1 {
		t.Error("distinct allocations must not alias")
	}
	if b.Used() != 8*units.KiB {
		t.Errorf("Used = %v, want 8KiB", b.Used())
	}
}

func TestAllocRounding(t *testing.T) {
	b := mustBuddy(t, 0, 1*units.MiB)
	if got := b.BlockSize(1); got != MinBlock {
		t.Errorf("BlockSize(1) = %v, want %v", got, MinBlock)
	}
	if got := b.BlockSize(5 * units.KiB); got != 8*units.KiB {
		t.Errorf("BlockSize(5KiB) = %v, want 8KiB", got)
	}
	if got := b.BlockSize(8 * units.KiB); got != 8*units.KiB {
		t.Errorf("BlockSize(8KiB) = %v, want 8KiB (exact)", got)
	}
}

func TestAllocAlignment(t *testing.T) {
	b := mustBuddy(t, 0, 1*units.MiB)
	// Force a small split first.
	if _, err := b.Alloc(4 * units.KiB); err != nil {
		t.Fatal(err)
	}
	a, err := b.Alloc(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(a)%uint64(64*units.KiB) != 0 {
		t.Errorf("64KiB block at %v is not naturally aligned", a)
	}
}

func TestExhaustion(t *testing.T) {
	b := mustBuddy(t, 0, 16*units.KiB)
	if _, err := b.Alloc(32 * units.KiB); err == nil {
		t.Error("oversized request must fail")
	}
	var addrs []phys.Addr
	for i := 0; i < 4; i++ {
		a, err := b.Alloc(4 * units.KiB)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
	}
	if _, err := b.Alloc(4 * units.KiB); err == nil {
		t.Error("exhausted pool must fail")
	}
	for _, a := range addrs {
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	// After freeing everything, a full-pool allocation must succeed again
	// (proves coalescing works).
	if _, err := b.Alloc(16 * units.KiB); err != nil {
		t.Errorf("coalescing failed: %v", err)
	}
}

func TestFreeErrors(t *testing.T) {
	b := mustBuddy(t, 0x1000, 64*units.KiB)
	if err := b.Free(0); err == nil {
		t.Error("free below base must fail")
	}
	if err := b.Free(0x2000); err == nil {
		t.Error("free of never-allocated block must fail")
	}
	a, err := b.Alloc(8 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := b.Free(a); err == nil {
		t.Error("double free must fail")
	}
}

func TestCoalesceAcrossOrders(t *testing.T) {
	b := mustBuddy(t, 0, 64*units.KiB)
	a1, _ := b.Alloc(4 * units.KiB)
	a2, _ := b.Alloc(4 * units.KiB)
	a3, _ := b.Alloc(8 * units.KiB)
	for _, a := range []phys.Addr{a1, a2, a3} {
		if err := b.Free(a); err != nil {
			t.Fatal(err)
		}
	}
	blocks := b.freeBlocks()
	top := len(blocks) - 1
	if blocks[top] != 1 {
		t.Errorf("free lists after full coalesce: %v (want single top-order block)", blocks)
	}
}

// Property: a random alloc/free workload never produces overlapping live
// blocks and Used() is always the sum of live block sizes.
func TestPropertyNoOverlap(t *testing.T) {
	const pool = 256 * units.KiB
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b, err := NewBuddy(0, pool)
		if err != nil {
			return false
		}
		type block struct {
			addr phys.Addr
			size units.Bytes
		}
		var live []block
		var sum units.Bytes
		for step := 0; step < 200; step++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(live))
				if err := b.Free(live[i].addr); err != nil {
					return false
				}
				sum -= live[i].size
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := units.Bytes(1 + rng.Intn(int(32*units.KiB)))
			a, err := b.Alloc(n)
			if err != nil {
				continue // pool full; acceptable
			}
			blk := block{a, b.BlockSize(n)}
			for _, l := range live {
				if a < l.addr+phys.Addr(l.size) && l.addr < a+phys.Addr(blk.size) {
					return false // overlap
				}
			}
			live = append(live, blk)
			sum += blk.size
		}
		return b.Used() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestErrorKinds pins the two failure sentinels apart: a request bigger
// than the pool itself is ErrTooLarge (a capacity fact no free can cure —
// what the out-of-core fallback keys on), while exhaustion of a pool that
// could satisfy the size is ErrNoSpace (transient; falling back to
// host-backed memory here would hide fragmentation bugs).
func TestErrorKinds(t *testing.T) {
	b := mustBuddy(t, 0, 16*units.KiB)
	_, err := b.Alloc(32 * units.KiB)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized request: got %v, want ErrTooLarge", err)
	}
	if errors.Is(err, ErrNoSpace) {
		t.Fatalf("oversized request must not read as exhaustion: %v", err)
	}
	// Exactly pool-sized is not too large...
	a, err := b.Alloc(16 * units.KiB)
	if err != nil {
		t.Fatalf("pool-sized request: %v", err)
	}
	// ...and a second fitting request against the now-full pool is
	// exhaustion, not a capacity error.
	_, err = b.Alloc(4 * units.KiB)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted pool: got %v, want ErrNoSpace", err)
	}
	if errors.Is(err, ErrTooLarge) {
		t.Fatalf("exhaustion must not read as a capacity error: %v", err)
	}
	// Freeing cures ErrNoSpace — the defining difference from ErrTooLarge.
	if err := b.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Alloc(4 * units.KiB); err != nil {
		t.Fatalf("post-free retry: %v", err)
	}
}
