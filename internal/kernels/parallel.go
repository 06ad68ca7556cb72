package kernels

import (
	"runtime"
	"sync"
)

// minParallel is the smallest element count worth fanning out goroutines.
const minParallel = 1 << 14

// parallelRanges splits [0, n) into roughly equal chunks and runs fn on each
// concurrently. fn receives [lo, hi).
func parallelRanges(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < minParallel || workers <= 1 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// parallelReduce splits [0, n) into chunks, computes a partial per chunk and
// returns the sum of partials. Partials are stored indexed by chunk and
// summed in chunk order, so the result is a pure function of n and
// GOMAXPROCS — never of goroutine completion order.
func parallelReduce[T float64 | complex128](n int, fn func(lo, hi int) T) T {
	workers := runtime.GOMAXPROCS(0)
	if n < minParallel || workers <= 1 {
		return fn(0, n)
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	nchunks := (n + chunk - 1) / chunk
	parts := make([]T, nchunks)
	var wg sync.WaitGroup
	for c := 0; c < nchunks; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			parts[c] = fn(lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	var sum T
	for _, p := range parts {
		sum += p
	}
	return sum
}
