package sparse

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 1.5
1 3 2
2 2 -3
3 1 4.25
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 3 || m.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	d := m.dense()
	if d[0] != 1.5 || d[2] != 2 || d[4] != -3 || d[6] != 4.25 {
		t.Errorf("dense = %v", d)
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 5
2 1 7
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3 (mirror expanded)", m.NNZ())
	}
	d := m.dense()
	if d[1] != 7 || d[2] != 7 || d[0] != 5 {
		t.Errorf("dense = %v", d)
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 2
2 3
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	d := m.dense()
	if d[1] != 1 || d[5] != 1 {
		t.Errorf("pattern values must be 1: %v", d)
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "%%MatrixMarket matrix array real general\n2 2 1\n1 1 1\n",
		"bad field":    "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1\n",
		"bad symmetry": "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n1 1 1\n",
		"bad size":     "%%MatrixMarket matrix coordinate real general\nnope\n",
		"short entry":  "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"oob entry":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"truncated":    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
		"bad value":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 x\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: must fail", name)
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	orig, err := RGG(200, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeMatrixMarket(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows != orig.Rows || back.NNZ() != orig.NNZ() {
		t.Fatalf("round trip shape: %dx%d nnz %d", back.Rows, back.Cols, back.NNZ())
	}
	for i := range orig.ColIdx {
		if orig.ColIdx[i] != back.ColIdx[i] || orig.Values[i] != back.Values[i] {
			t.Fatalf("round trip differs at entry %d", i)
		}
	}
}

// writeMatrixMarket emits the matrix in general real coordinate format.
func writeMatrixMarket(w io.Writer, m *CSR) error {
	if err := m.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %g\n", i+1, m.ColIdx[k]+1, m.Values[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
