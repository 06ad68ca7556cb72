// Package kernels implements the math library operations MEALib accelerates
// (paper Table 1) plus the compute-bounded routines STAP needs (Table 4):
// AXPY, DOT, GEMV, CSR SPMV, 1-D resampling, FFT, matrix transpose, and the
// complex kernels CDOTC, CHERK and CTRSM.
//
// Every operation but SPMV comes in (at least) two variants:
//
//   - a Naive reference — the straight textbook loop, standing in for the
//     "original code" of the paper's Figure 1;
//   - an optimized variant — blocked, unrolled and fanned out on par,
//     standing in for the high-performance library (MKL) implementation.
//
// SPMV's textbook loop is kept in its tests only (spmvScalar), which hold
// the kernel to it bit for bit.
//
// The optimized variants are the functional payload executed by both the
// modelled CPUs and the memory-side accelerators: an accelerator in this
// reproduction really computes, and its numeric result is bit-compatible
// with the library path it replaces (up to floating-point reassociation,
// which the tests bound).
package kernels
