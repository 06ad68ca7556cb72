// Package par is the tree's one fan-out and the one place it asks
// runtime.GOMAXPROCS. Helpers come from one process-wide budget of
// GOMAXPROCS − 1 goroutines, one atomic counter: a fan-out started inside
// another's chunk finds the budget spent and runs inline, so nesting never
// oversubscribes. Helpers start per call and exit before it returns.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// helpers counts the helper goroutines alive, process-wide.
var helpers atomic.Int64

// Workers is min(limit, GOMAXPROCS): the width an automatic fan-out aims for.
func Workers(limit int) int { return min(limit, runtime.GOMAXPROCS(0)) }

// Do runs body(w, c) once for every chunk c in [0, n) on at most width
// workers and returns when every chunk has run, with the error of the first
// chunk in chunk order that returned one. The caller runs chunks itself as
// worker 0; helpers taken from the budget claim the rest from one cursor,
// each as its own w in [1, min(n, width)), so scratch indexed by w is made
// once per worker and used by one goroutine at a time. A call of one chunk,
// or one that finds the budget spent, starts no goroutine and allocates
// nothing.
func Do(n, width int, body func(w, c int) error) error { return run(n, width, false, body) }

// Fixed is Do on min(n, width) workers whatever the budget holds: a width
// set explicitly gets its width. Its helpers count against the budget all
// the same, so fan-outs nested in its chunks run inline.
func Fixed(n, width int, body func(w, c int) error) error { return run(n, width, true, body) }

// run is Fixed if fixed is set, else Do. Do and Fixed inline into their
// callers, so a call that starts no helper reaches body through this one
// call of par's.
func run(n, width int, fixed bool, body func(w, c int) error) error {
	h := 0
	if n > 1 && width > 1 {
		if h = min(n, width) - 1; fixed {
			helpers.Add(int64(h))
		} else {
			h = take(h)
		}
	}
	if h == 0 {
		var first error
		for c := 0; c < n; c++ {
			if err := body(0, c); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	f := &fanOut{body: body, n: int64(n), at: n}
	f.wg.Add(h)
	for w := 1; w <= h; w++ {
		go f.work(w)
	}
	f.work(0)
	f.wg.Wait()
	return f.err
}

// take claims up to want helpers from the budget and returns how many it
// got.
func take(want int) int {
	limit := int64(runtime.GOMAXPROCS(0) - 1)
	for {
		live := helpers.Load()
		h := max(0, min(int64(want), limit-live))
		if h == 0 || helpers.CompareAndSwap(live, live+h) {
			return int(h)
		}
	}
}

// fanOut is what the workers of one call share.
type fanOut struct {
	body func(w, c int) error
	n    int64
	next atomic.Int64
	wg   sync.WaitGroup
	mu   sync.Mutex
	at   int // the first failed chunk, whose error err is
	err  error
}

// work claims chunks until none is left. A helper gives its slot back to
// the budget before the call it serves can return.
func (f *fanOut) work(w int) {
	for c := f.next.Add(1) - 1; c < f.n; c = f.next.Add(1) - 1 {
		if err := f.body(w, int(c)); err != nil {
			f.mu.Lock()
			if int(c) < f.at {
				f.at, f.err = int(c), err
			}
			f.mu.Unlock()
		}
	}
	if w > 0 {
		helpers.Add(-1)
		f.wg.Done()
	}
}
