package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn at GOMAXPROCS procs.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestEveryChunkOnce: every chunk runs exactly once, on a worker index below
// min(n, width) that no other goroutine holds at the same time, for Do and
// Fixed at every width, at one and at four procs.
func TestEveryChunkOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			for _, width := range []int{1, 2, 3, 8} {
				for name, run := range map[string]func(int, int, func(w, c int) error) error{"Do": Do, "Fixed": Fixed} {
					withProcs(procs, func() {
						ran := make([]atomic.Int32, n)
						busy := make([]atomic.Int32, max(1, min(n, width)))
						err := run(n, width, func(w, c int) error {
							if w < 0 || w >= len(busy) {
								return fmt.Errorf("worker %d of %d", w, len(busy))
							}
							if busy[w].Add(1) != 1 {
								return fmt.Errorf("worker %d runs two chunks at once", w)
							}
							ran[c].Add(1)
							runtime.Gosched()
							busy[w].Add(-1)
							return nil
						})
						if err != nil {
							t.Errorf("%s(%d, %d) at %d procs: %v", name, n, width, procs, err)
						}
						for c := range ran {
							if got := ran[c].Load(); got != 1 {
								t.Errorf("%s(%d, %d) at %d procs: chunk %d ran %d times", name, n, width, procs, c, got)
							}
						}
					})
				}
			}
		}
	}
}

// TestFirstErrorInChunkOrder: the error returned is the first failed chunk's
// in chunk order, although a later chunk reports first: chunk 0 fails only
// after the last chunk has failed.
func TestFirstErrorInChunkOrder(t *testing.T) {
	const n = 64
	errFirst, errLast := errors.New("chunk 0"), errors.New("last chunk")
	for _, run := range []func(int, int, func(w, c int) error) error{Do, Fixed} {
		withProcs(4, func() {
			lastFailed := make(chan struct{})
			err := run(n, 4, func(w, c int) error {
				switch c {
				case 0:
					select {
					case <-lastFailed:
					case <-time.After(5 * time.Second):
						// No helper took the last chunk: it runs after this
						// one, on this worker.
					}
					return errFirst
				case n - 1:
					close(lastFailed)
					return errLast
				}
				return nil
			})
			if err != errFirst {
				t.Errorf("error %v, want %v", err, errFirst)
			}
		})
	}
	// Inline, every chunk still runs after a failure.
	ran := 0
	err := Do(3, 1, func(w, c int) error {
		ran++
		return fmt.Errorf("chunk %d", c)
	})
	if ran != 3 || err == nil || err.Error() != "chunk 0" {
		t.Errorf("inline: ran %d chunks, error %v", ran, err)
	}
}

// TestNestedFanOutsKeepTheBudget: fan-outs nested two deep never have more
// than GOMAXPROCS − 1 helpers alive, read from the package's counter, and
// the budget is whole again when the outer call returns.
func TestNestedFanOutsKeepTheBudget(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		withProcs(procs, func() {
			var most atomic.Int64
			look := func() {
				live := helpers.Load()
				for m := most.Load(); live > m && !most.CompareAndSwap(m, live); m = most.Load() {
				}
			}
			err := Do(8, 8, func(_, _ int) error {
				look()
				return Do(8, 8, func(_, _ int) error {
					look()
					return Do(4, 4, func(_, _ int) error {
						look()
						runtime.Gosched()
						return nil
					})
				})
			})
			if err != nil {
				t.Fatal(err)
			}
			if m := most.Load(); m > int64(procs-1) {
				t.Errorf("GOMAXPROCS %d: %d helpers alive at once", procs, m)
			}
			if live := helpers.Load(); live != 0 {
				t.Errorf("GOMAXPROCS %d: %d helpers counted after the call", procs, live)
			}
		})
	}
}

// TestNoGoroutineOutlivesACall: the goroutine count after a fan-out is the
// count before it.
func TestNoGoroutineOutlivesACall(t *testing.T) {
	withProcs(4, func() {
		before := runtime.NumGoroutine()
		if err := Fixed(32, 4, func(_, _ int) error { runtime.Gosched(); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := Do(32, 4, func(_, _ int) error { runtime.Gosched(); return nil }); err != nil {
			t.Fatal(err)
		}
		// A helper that has signalled may still be on its way out: allow it
		// up to 5 s.
		for waited := 0; runtime.NumGoroutine() > before; waited++ {
			if waited == 5000 {
				t.Fatalf("%d goroutines after the calls, %d before", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestInlineAllocatesNothing: a call of one chunk, and a call that finds the
// budget spent, with a body that captures nothing, allocate nothing.
func TestInlineAllocatesNothing(t *testing.T) {
	body := func(_, _ int) error { return nil }
	if avg := testing.AllocsPerRun(100, func() { _ = Do(1, 8, body) }); avg != 0 {
		t.Errorf("Do of one chunk allocates %v times a call, want 0", avg)
	}
	withProcs(1, func() {
		if avg := testing.AllocsPerRun(100, func() { _ = Do(8, 8, body) }); avg != 0 {
			t.Errorf("Do with the budget spent allocates %v times a call, want 0", avg)
		}
	})
}
