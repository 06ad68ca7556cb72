package kernels

import "mealib/internal/par"

// minParallel is the smallest element count worth fanning out.
const minParallel = 1 << 14

// grain is the length of a range chunk: a call at minParallel splits in four.
const grain = minParallel / 4

// refusal is the index a range chunk stopped at.
type refusal int

func (refusal) Error() string { return "kernels: range refused" }

// parallelRanges runs fn over [0, n): inline below minParallel, else over
// chunks of grain on par. fn receives [lo, hi) and returns where it stopped:
// hi when it ran the whole chunk, or the index it refused. parallelRanges
// returns the first refused index, which par's first error in chunk order
// makes the smallest however the chunks were run, or n when every chunk ran
// to its end.
func parallelRanges(n int, fn func(lo, hi int) int) int {
	if n < minParallel {
		return fn(0, n)
	}
	chunks := (n + grain - 1) / grain
	err := par.Do(chunks, chunks, func(_, c int) error {
		lo, hi := c*grain, min((c+1)*grain, n)
		if stop := fn(lo, hi); stop < hi {
			return refusal(stop)
		}
		return nil
	})
	if stop, ok := err.(refusal); ok {
		return int(stop)
	}
	return n
}

// parallelReduce cuts [0, n) into chunks of minParallel, computes a partial
// per chunk on par and returns the partials summed in chunk order. The cut
// and the order of the sum depend on n alone, so the result has the same
// bits at any core count.
func parallelReduce[T float64 | complex128](n int, fn func(lo, hi int) T) T {
	if n <= minParallel {
		return fn(0, n)
	}
	parts := make([]T, (n+minParallel-1)/minParallel)
	_ = par.Do(len(parts), len(parts), func(_, c int) error {
		lo := c * minParallel
		parts[c] = fn(lo, min(lo+minParallel, n))
		return nil
	})
	sum := parts[0]
	for _, p := range parts[1:] {
		sum += p
	}
	return sum
}
