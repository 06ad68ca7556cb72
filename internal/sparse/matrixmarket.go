package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market coordinate-format I/O, so the SPMV experiments can consume
// real matrices (e.g. the UF collection's rgg_n_2_20 that Table 2 names)
// when they are available, instead of the synthetic RGG substitute.
//
// Supported header: "%%MatrixMarket matrix coordinate <real|integer|pattern>
// <general|symmetric>". Pattern entries get value 1; symmetric storage is
// expanded to both triangles.

// ReadMatrixMarket parses a coordinate-format Matrix Market stream.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: mm: empty input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: mm: unsupported header %q", sc.Text())
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: mm: unsupported field type %q", field)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: mm: unsupported symmetry %q", symmetry)
	}
	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: mm: bad size line %q: %v", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: mm: bad dimensions %dx%d nnz %d", rows, cols, nnz)
	}
	entries := make([]COO, 0, nnz)
	read := 0
	for sc.Scan() && read < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("sparse: mm: short entry %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: mm: bad row in %q", line)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: mm: bad column in %q", line)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: mm: bad value in %q", line)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: mm: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		entries = append(entries, COO{Row: int32(i - 1), Col: int32(j - 1), Val: float32(v)})
		if symmetry == "symmetric" && i != j {
			entries = append(entries, COO{Row: int32(j - 1), Col: int32(i - 1), Val: float32(v)})
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: mm: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: mm: expected %d entries, found %d", nnz, read)
	}
	return FromCOO(rows, cols, entries)
}
