package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallel is the smallest element count worth fanning out goroutines.
const minParallel = 1 << 14

// parallelRanges splits [0, n) into roughly equal chunks and runs fn on each
// concurrently. fn receives [lo, hi) and returns where it stopped: hi when
// it ran the whole chunk, or the index it refused. parallelRanges returns
// the smallest refused index, which is the first refusal in index order
// however the range was split, or n when every chunk ran to its end.
func parallelRanges(n int, fn func(lo, hi int) int) int {
	workers := runtime.GOMAXPROCS(0)
	if n < minParallel || workers <= 1 {
		return fn(0, n)
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	// One object holds the wait group and the first refusal, so reporting
	// a refusal costs the fan-out no allocation of its own.
	var fan struct {
		wg    sync.WaitGroup
		first atomic.Int64
	}
	fan.first.Store(int64(n))
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fan.wg.Add(1)
		go func(lo, hi int) {
			defer fan.wg.Done()
			if stop := int64(fn(lo, hi)); stop < int64(hi) {
				for first := fan.first.Load(); stop < first && !fan.first.CompareAndSwap(first, stop); first = fan.first.Load() {
				}
			}
		}(lo, hi)
	}
	fan.wg.Wait()
	return int(fan.first.Load())
}

// parallelReduce cuts [0, n) into chunks of minParallel, computes a partial
// per chunk and returns the partials summed in chunk order. Up to
// GOMAXPROCS goroutines claim the chunks, but the cut and the order of the
// sum depend on n alone, so the result has the same bits at any core count.
func parallelReduce[T float64 | complex128](n int, fn func(lo, hi int) T) T {
	nchunks, workers := (n+minParallel-1)/minParallel, 1
	if nchunks > 1 {
		workers = min(runtime.GOMAXPROCS(0), nchunks)
	}
	if workers <= 1 {
		sum := fn(0, min(minParallel, n))
		for lo := minParallel; lo < n; lo += minParallel {
			sum += fn(lo, min(lo+minParallel, n))
		}
		return sum
	}
	parts := make([]T, nchunks)
	// One object holds the wait group and the next chunk to claim.
	var fan struct {
		wg   sync.WaitGroup
		next atomic.Int64
	}
	fan.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer fan.wg.Done()
			for c := int(fan.next.Add(1) - 1); c < nchunks; c = int(fan.next.Add(1) - 1) {
				lo := c * minParallel
				parts[c] = fn(lo, min(lo+minParallel, n))
			}
		}()
	}
	fan.wg.Wait()
	sum := parts[0]
	for _, p := range parts[1:] {
		sum += p
	}
	return sum
}
