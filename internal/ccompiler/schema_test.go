package ccompiler

import (
	"slices"
	"testing"
)

// TestRecognisedOperands pins, for every library call the recognizer maps,
// which of its fields are the accelerator's inputs, outputs and strided
// addresses.
func TestRecognisedOperands(t *testing.T) {
	r := newRecognizer(nil)
	r.dims["d"] = [][3]string{{"64", "1", "1"}}
	r.dims["h"] = [][3]string{{"8", "1", "1"}, {"16", "1", "1"}}
	r.plans["fft"] = &fftwPlan{rank: 1, dims: "d", howmanyDims: "h", in: BufRef{Name: "a"}, out: BufRef{Name: "b"}}
	r.plans["copy"] = &fftwPlan{rank: 0, howmanyDims: "h", in: BufRef{Name: "a"}, out: BufRef{Name: "b"}}
	for _, tc := range []struct {
		call             call
		in, out, strided []int
	}{
		{call{name: "cblas_saxpy", args: []string{"n", "a", "x", "1", "y", "1"}}, []int{2, 3}, []int{3}, []int{2, 3}},
		{call{name: "cblas_sdot", args: []string{"n", "x", "1", "y", "1"}, target: "r"}, []int{2, 3}, []int{4}, []int{2, 3, 4}},
		{call{name: "cblas_cdotc_sub", args: []string{"n", "x", "1", "y", "1", "&r"}}, []int{2, 3}, []int{4}, []int{2, 3, 4}},
		{call{name: "cblas_sgemv", args: []string{"CblasRowMajor", "CblasNoTrans", "m", "n", "1.0", "A", "n", "x", "1", "0.0", "y", "1"}}, []int{4, 6}, []int{7}, []int{4, 6, 7}},
		{call{name: "mkl_cspblas_scsrgemv", args: []string{"&t", "&m", "v", "ia", "ja", "x", "y"}}, []int{3, 4, 5, 6}, []int{7}, nil},
		{call{name: "dfsInterpolate1D", args: []string{"task", "nin", "s", "nout", "d"}}, []int{3}, []int{4}, []int{3, 4}},
		{call{name: "mkl_simatcopy", args: []string{"'R'", "'T'", "r", "c", "1.0", "ab", "c", "r"}}, []int{3}, []int{4}, nil},
		{call{name: "fftwf_execute", args: []string{"copy"}}, []int{3}, []int{4}, nil},
		{call{name: "fftwf_execute", args: []string{"fft"}}, []int{3}, []int{4}, []int{3, 4}},
	} {
		sym, err := r.recognise(&tc.call)
		if err != nil || sym == nil {
			t.Fatalf("%s: not recognised (%v)", tc.call.name, err)
		}
		in, out, strided := operandsOf(sym)
		if !slices.Equal(in, tc.in) || !slices.Equal(out, tc.out) || !slices.Equal(strided, tc.strided) {
			t.Errorf("%s: inputs %v, outputs %v, strided %v; want %v, %v, %v",
				sym.Name, in, out, strided, tc.in, tc.out, tc.strided)
		}
	}
}

// operandsOf reads a call's inputs, outputs and strided addresses off its
// schema.
func operandsOf(s *SymCall) (in, out, strided []int) {
	for fi := range s.Fields {
		if s.Schema[fi].In {
			in = append(in, fi)
		}
		if s.Schema[fi].Out {
			out = append(out, fi)
		}
		if s.Schema[fi].Strided {
			strided = append(strided, fi)
		}
	}
	return in, out, strided
}

// TestFixedAddressNotCompacted: SPMV's addresses own no Strides block, so a
// loop that moves one per iteration is not compacted into a LOOP descriptor
// whose every iteration would write the same y.
func TestFixedAddressNotCompacted(t *testing.T) {
	src := `
void f(void) {
  float v[64]; int ia[17]; int ja[64];
  float x[16];
  float y[8][16];
  int i;
  for (i = 0; i < 8; ++i)
    mkl_cspblas_scsrgemv(&t, &m, v, ia, ja, x, &y[i][0]);
}
`
	res, err := Compile(src, Options{Symbols: map[string]int64{"m": 16}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CompactedLoops != 0 || res.Stats.Descriptors != 1 {
		t.Errorf("compacted=%d descriptors=%d, want the call accelerated per iteration\n%s",
			res.Stats.CompactedLoops, res.Stats.Descriptors, res.Describe())
	}
}
