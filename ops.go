package mealib

import (
	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/sparse"
)

// One-shot operations: each builds a single-pass descriptor, executes it on
// the accelerator layer, and returns the run report. These mirror the
// library APIs of the paper's Table 1.

// launch installs one accelerator call as a one-pass descriptor and
// executes it.
func (s *System) launch(op descriptor.OpCode, p descriptor.Params) (*Run, error) {
	d := &descriptor.Descriptor{}
	if err := d.AddComp(op, p); err != nil {
		return nil, err
	}
	d.AddEndPass()
	plan, err := s.rt.AccPlanDescriptor(d)
	if err != nil {
		return nil, err
	}
	return s.execute(plan)
}

// Saxpy computes y += alpha*x on the AXPY accelerator.
func (s *System) Saxpy(alpha float32, x, y *Float32Buffer) (*Run, error) {
	if x.Len() != y.Len() {
		return nil, errorf("saxpy: length mismatch %d vs %d", x.Len(), y.Len())
	}
	return s.launch(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(x.Len()), Alpha: alpha, X: x.addr(0), Y: y.addr(0), IncX: 1, IncY: 1,
	}.Params())
}

// Sdot computes the inner product of x and y on the DOT accelerator.
func (s *System) Sdot(x, y *Float32Buffer) (float32, *Run, error) {
	if x.Len() != y.Len() {
		return 0, nil, errorf("sdot: length mismatch %d vs %d", x.Len(), y.Len())
	}
	out, err := Alloc[float32](s, 1)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = out.Free(s) }()
	run, err := s.launch(descriptor.OpDOT, accel.DotArgs{
		N: int64(x.Len()), X: x.addr(0), Y: y.addr(0), Out: out.addr(0), IncX: 1, IncY: 1,
	}.Params())
	if err != nil {
		return 0, nil, err
	}
	v, err := out.Get(0, 1)
	if err != nil {
		return 0, nil, err
	}
	return v[0], run, nil
}

// Cdotc computes the conjugated complex inner product on the DOT
// accelerator (the cblas_cdotc_sub mapping of Table 1).
func (s *System) Cdotc(x, y *Complex64Buffer) (complex64, *Run, error) {
	if x.Len() != y.Len() {
		return 0, nil, errorf("cdotc: length mismatch %d vs %d", x.Len(), y.Len())
	}
	out, err := Alloc[complex64](s, 1)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = out.Free(s) }()
	run, err := s.launch(descriptor.OpDOT, accel.DotArgs{
		N: int64(x.Len()), Complex: true,
		X: x.addr(0), Y: y.addr(0), Out: out.addr(0), IncX: 1, IncY: 1,
	}.Params())
	if err != nil {
		return 0, nil, err
	}
	v, err := out.Get(0, 1)
	if err != nil {
		return 0, nil, err
	}
	return v[0], run, nil
}

// Sgemv computes y = alpha*A*x + beta*y for a row-major m x n matrix on the
// GEMV accelerator.
func (s *System) Sgemv(m, n int, alpha float32, a *Float32Buffer, x *Float32Buffer, beta float32, y *Float32Buffer) (*Run, error) {
	if a.Len() < m*n || x.Len() < n || y.Len() < m {
		return nil, errorf("sgemv: buffers too small for %dx%d", m, n)
	}
	return s.launch(descriptor.OpGEMV, accel.GemvArgs{
		M: int64(m), N: int64(n), Alpha: alpha, Beta: beta,
		A: a.addr(0), Lda: int64(n), X: x.addr(0), Y: y.addr(0),
	}.Params())
}

// CSRMatrix is a sparse matrix staged into accelerator-visible memory.
type CSRMatrix struct {
	Rows, Cols int
	NNZ        int
	rowPtr     *Int32Buffer
	colIdx     *Int32Buffer
	values     *Float32Buffer
}

// UploadCSR stages a CSR matrix into the data space.
func (s *System) UploadCSR(m *sparse.CSR) (*CSRMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.NNZ() == 0 {
		return nil, errorf("empty sparse matrix")
	}
	rowPtr, err := Alloc[int32](s, len(m.RowPtr))
	if err != nil {
		return nil, err
	}
	colIdx, err := Alloc[int32](s, m.NNZ())
	if err != nil {
		return nil, err
	}
	values, err := Alloc[float32](s, m.NNZ())
	if err != nil {
		return nil, err
	}
	if err := rowPtr.Set(m.RowPtr); err != nil {
		return nil, err
	}
	if err := colIdx.Set(m.ColIdx); err != nil {
		return nil, err
	}
	if err := values.Set(m.Values); err != nil {
		return nil, err
	}
	return &CSRMatrix{
		Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(),
		rowPtr: rowPtr, colIdx: colIdx, values: values,
	}, nil
}

// Spmv computes y = A*x on the SPMV accelerator.
func (s *System) Spmv(a *CSRMatrix, x, y *Float32Buffer) (*Run, error) {
	if x.Len() < a.Cols || y.Len() < a.Rows {
		return nil, errorf("spmv: vector sizes %d/%d for %dx%d matrix", x.Len(), y.Len(), a.Rows, a.Cols)
	}
	return s.launch(descriptor.OpSPMV, accel.SpmvArgs{
		M: int64(a.Rows), Cols: int64(a.Cols), NNZ: int64(a.NNZ),
		RowPtr: a.rowPtr.addr(0), ColIdx: a.colIdx.addr(0), Values: a.values.addr(0),
		X: x.addr(0), Y: y.addr(0),
	}.Params())
}

// Resample interpolates src onto dst's grid (linear or cubic) on the RESMP
// accelerator.
func (s *System) Resample(src, dst *Float32Buffer, cubic bool) (*Run, error) {
	kind := int64(kernels.InterpLinear)
	if cubic {
		kind = int64(kernels.InterpCubic)
	}
	return s.launch(descriptor.OpRESMP, accel.ResmpArgs{
		NIn: int64(src.Len()), NOut: int64(dst.Len()), Kind: kind,
		Src: src.addr(0), Dst: dst.addr(0),
	}.Params())
}

// FFT transforms howMany contiguous length-n signals in place on the FFT
// accelerator (forward when inverse is false; the inverse is unscaled,
// FFTW-style).
func (s *System) FFT(data *Complex64Buffer, n, howMany int, inverse bool) (*Run, error) {
	if n < 1 || howMany < 1 || data.Len() < n*howMany {
		return nil, errorf("fft: %d transforms of %d exceed buffer %d", howMany, n, data.Len())
	}
	return s.launch(descriptor.OpFFT, accel.FFTArgs{
		N: int64(n), Inverse: inverse, HowMany: int64(howMany),
		Src: data.addr(0), Dst: data.addr(0),
	}.Params())
}

// Transpose writes the transpose of the rows x cols matrix src into dst on
// the RESHP engine (mkl_somatcopy-style; use equal buffers and rows==cols
// for the in-place mkl_simatcopy behaviour).
func (s *System) Transpose(rows, cols int, src, dst *Float32Buffer) (*Run, error) {
	if src.Len() < rows*cols || dst.Len() < rows*cols {
		return nil, errorf("transpose: buffers too small for %dx%d", rows, cols)
	}
	return s.launch(descriptor.OpRESHP, accel.ReshpArgs{
		Rows: int64(rows), Cols: int64(cols), Elem: accel.ElemF32,
		Src: src.addr(0), Dst: dst.addr(0),
	}.Params())
}

// TransposeC64 is Transpose for complex64 matrices.
func (s *System) TransposeC64(rows, cols int, src, dst *Complex64Buffer) (*Run, error) {
	if src.Len() < rows*cols || dst.Len() < rows*cols {
		return nil, errorf("transpose: buffers too small for %dx%d", rows, cols)
	}
	return s.launch(descriptor.OpRESHP, accel.ReshpArgs{
		Rows: int64(rows), Cols: int64(cols), Elem: accel.ElemC64,
		Src: src.addr(0), Dst: dst.addr(0),
	}.Params())
}
