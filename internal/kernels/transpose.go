package kernels

import "fmt"

// TransposeNaive writes the transpose of the m x n row-major matrix src into
// the n x m row-major matrix dst (mkl_somatcopy semantics; the paper's RESHP
// accelerator is the in-place mkl_simatcopy for square matrices, which the
// runtime implements out-of-place into DRAM-side buffers).
func TransposeNaive(m, n int, src, dst []float32) error {
	if err := checkTranspose(m, n, src, dst); err != nil {
		return err
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[j*m+i] = src[i*n+j]
		}
	}
	return nil
}

// transposeBlock is the cache-blocking tile edge (32x32 float32 = 4 KiB,
// complex64 = 8 KiB, comfortably inside L1).
const transposeBlock = 32

// blocks is the number of tiles across an edge of n elements.
func blocks(n int) int { return (n + transposeBlock - 1) / transposeBlock }

// Transpose is the optimized blocked, parallel transpose. It only moves
// elements, so it serves any element type.
func Transpose[T any](m, n int, src, dst []T) error {
	if err := checkTranspose(m, n, src, dst); err != nil {
		return err
	}
	parallelRanges(blocks(m)*blocks(n), func(lo, hi int) int {
		// nbj is worked out here, not captured: the closure is allocated
		// per call, and with the generic dictionary one more capture would
		// take it past the 80-byte size class.
		nbj := blocks(n)
		for b := lo; b < hi; b++ {
			bi := (b / nbj) * transposeBlock
			bj := (b % nbj) * transposeBlock
			ie := min(bi+transposeBlock, m)
			je := min(bj+transposeBlock, n)
			for i := bi; i < ie; i++ {
				row := src[i*n:]
				for j := bj; j < je; j++ {
					dst[j*m+i] = row[j]
				}
			}
		}
		return hi
	})
	return nil
}

// TransposeInPlace transposes a square n x n matrix in place
// (mkl_simatcopy with alpha=1).
func TransposeInPlace[T any](n int, a []T) error {
	if n < 0 {
		return fmt.Errorf("kernels: transpose: negative size %d", n)
	}
	if len(a) < n*n {
		return fmt.Errorf("kernels: transpose: buffer %d < n*n=%d", len(a), n*n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a[i*n+j], a[j*n+i] = a[j*n+i], a[i*n+j]
		}
	}
	return nil
}

func checkTranspose[T any](m, n int, src, dst []T) error {
	if m < 0 || n < 0 {
		return fmt.Errorf("kernels: transpose: negative dimensions %dx%d", m, n)
	}
	if len(src) < m*n {
		return fmt.Errorf("kernels: transpose: src length %d < %d", len(src), m*n)
	}
	if len(dst) < m*n {
		return fmt.Errorf("kernels: transpose: dst length %d < %d", len(dst), m*n)
	}
	return nil
}
