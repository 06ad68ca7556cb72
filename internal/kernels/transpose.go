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

// tileElems is a tile's element count; grain is a multiple of it.
const tileElems = transposeBlock * transposeBlock

// blocks is the number of tiles across an edge of n elements.
func blocks(n int) int { return (n + transposeBlock - 1) / transposeBlock }

// Transpose is the optimized blocked, parallel transpose. It only moves
// elements, so it serves any element type. It ranges over its tiles'
// elements, so it fans out from minParallel elements, each chunk whole tiles.
func Transpose[T any](m, n int, src, dst []T) error {
	if err := checkTranspose(m, n, src, dst); err != nil {
		return err
	}
	parallelRanges(blocks(m)*blocks(n)*tileElems, transposeBody[T]{m, n, src, dst})
	return nil
}

// transposeBody is Transpose's range body, over its tiles' elements.
type transposeBody[T any] struct {
	m, n     int
	src, dst []T
}

func (b transposeBody[T]) span(lo, hi int) int {
	m, n, src, dst := b.m, b.n, b.src, b.dst
	nbj := blocks(n)
	for t := lo / tileElems; t < hi/tileElems; t++ {
		bi := (t / nbj) * transposeBlock
		bj := (t % nbj) * transposeBlock
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
