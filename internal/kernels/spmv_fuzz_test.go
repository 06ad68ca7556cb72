package kernels

import (
	"encoding/binary"
	"math"
	"testing"
)

// spmvScalar is the plain scalar loop the row-sliced kernel replaced: every
// entry indexed through rowPtr, colIdx and values, in CSR entry order. On
// any input checkCSR accepts it must not panic, and the kernel must match
// it bit for bit.
func spmvScalar(m int, rowPtr, colIdx []int32, values, x []float32, semiring int64, bias float32) []float32 {
	y := make([]float32, m)
	for i := 0; i < m; i++ {
		switch semiring {
		case SemiringPlusTimes:
			sum := float64(bias)
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				sum += float64(values[k]) * float64(x[colIdx[k]])
			}
			y[i] = float32(sum)
		case SemiringMinPlus:
			best := bias
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				if d := values[k] + x[colIdx[k]]; d < best {
					best = d
				}
			}
			y[i] = best
		}
	}
	return y
}

// smallInts reads one signed byte per index, so that row pointers and
// column indices land near the lengths they must respect, negatives
// included.
func smallInts(b []byte) []int32 {
	out := make([]int32, len(b))
	for i, c := range b {
		out[i] = int32(int8(c))
	}
	return out
}

// floats reads four little-endian bytes per element, so every float32 bit
// pattern (NaNs, infinities, negative zero) is reachable.
func floats(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func f32bytes(v ...float32) []byte {
	out := make([]byte, 0, 4*len(v))
	for _, f := range v {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(f))
	}
	return out
}

// FuzzSpmvSemiring holds SpmvCSRSemiring to two promises on arbitrary CSR
// arrays, the bytes a tenant writes into an SPMV plan's buffers: it never
// panics, and when it accepts its input y equals spmvScalar bit for bit.
func FuzzSpmvSemiring(f *testing.F) {
	rp, ci, v := smallCSR()
	rpb, cib := make([]byte, len(rp)), make([]byte, len(ci))
	for i, r := range rp {
		rpb[i] = byte(r)
	}
	for i, c := range ci {
		cib[i] = byte(c)
	}
	f.Add(int8(3), rpb, cib, f32bytes(v...), f32bytes(1, 2, 3), SemiringPlusTimes, float32(0))
	f.Add(int8(3), rpb, cib, f32bytes(v...), f32bytes(0, float32(math.Inf(1)), -1), SemiringMinPlus, float32(math.Inf(1)))
	f.Add(int8(2), []byte{0xff, 0, 1}, []byte{0}, f32bytes(1), f32bytes(1), SemiringPlusTimes, float32(0))
	f.Add(int8(3), rpb, []byte{0, 2, 1, 0xff, 2}, f32bytes(v...), f32bytes(1, 2, 3), SemiringMinPlus, float32(0))
	f.Fuzz(func(t *testing.T, m int8, rowPtrB, colIdxB, valuesB, xB []byte, semiring int64, bias float32) {
		rowPtr, colIdx := smallInts(rowPtrB), smallInts(colIdxB)
		values, x := floats(valuesB), floats(xB)
		y := make([]float32, max(int(m), 0))
		if err := SpmvCSRSemiring(int(m), rowPtr, colIdx, values, x, y, semiring, bias); err != nil {
			return
		}
		want := spmvScalar(int(m), rowPtr, colIdx, values, x, semiring, bias)
		for i := range want {
			if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
				t.Fatalf("row %d: kernel %v (%#x), scalar loop %v (%#x)", i, y[i], math.Float32bits(y[i]), want[i], math.Float32bits(want[i]))
			}
		}
	})
}
