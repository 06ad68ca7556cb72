package exp

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/platform"
)

// Fig9Row is one operation's performance gain over Haswell/MKL per platform.
type Fig9Row struct {
	Op                          descriptor.OpCode
	XeonPhi, PSAS, MSAS, MEALib float64
	PaperMEALib                 float64
}

// paperFig9 holds the per-op MEALib gains the paper reports.
var paperFig9 = map[descriptor.OpCode]float64{
	descriptor.OpAXPY:  39.0,
	descriptor.OpDOT:   35.1,
	descriptor.OpGEMV:  20.4,
	descriptor.OpSPMV:  10.9,
	descriptor.OpRESMP: 13.3,
	descriptor.OpFFT:   59.2,
	descriptor.OpRESHP: 88.4,
}

// paperFig10 holds the per-op MEALib energy-efficiency gains.
var paperFig10 = map[descriptor.OpCode]float64{
	descriptor.OpAXPY:  88.7,
	descriptor.OpDOT:   61.7,
	descriptor.OpGEMV:  57.3,
	descriptor.OpSPMV:  32.9,
	descriptor.OpRESMP: 36.4,
	descriptor.OpFFT:   150.4,
	descriptor.OpRESHP: 96.6,
}

// gains evaluates (base time / platform time) per op and platform for the
// Table 2 workloads; energy selects energy-efficiency gains instead.
func gains(energy bool) ([]Fig9Row, error) {
	base := platform.Haswell()
	plats := []*platform.Platform{platform.XeonPhi(), platform.PSAS(), platform.MSAS(), platform.MEALib()}
	loads := platform.StandardWorkloads()
	paper := paperFig9
	if energy {
		paper = paperFig10
	}
	var rows []Fig9Row
	for _, op := range accel.Ops() {
		w := loads[op]
		rb, err := base.Run(op, w)
		if err != nil {
			return nil, err
		}
		row := Fig9Row{Op: op, PaperMEALib: paper[op]}
		vals := []*float64{&row.XeonPhi, &row.PSAS, &row.MSAS, &row.MEALib}
		for i, p := range plats {
			rp, err := p.Run(op, w)
			if err != nil {
				return nil, err
			}
			if energy {
				*vals[i] = float64(rb.Energy) / float64(rp.Energy)
			} else {
				*vals[i] = float64(rb.Time) / float64(rp.Time)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure9 reproduces the performance-improvement matrix.
func Figure9() ([]Fig9Row, error) { return gains(false) }

// Figure10 reproduces the energy-efficiency matrix.
func Figure10() ([]Fig9Row, error) { return gains(true) }

// avgMEALib averages the MEALib column.
func avgMEALib(rows []Fig9Row) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.MEALib
	}
	return sum / float64(len(rows))
}

func renderGains(title string, rows []Fig9Row, paperAvg float64) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"Op", "Xeon Phi", "PSAS", "MSAS", "MEALib", "paper MEALib"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Op.String(), f(r.XeonPhi), f(r.PSAS), f(r.MSAS), f(r.MEALib), f(r.PaperMEALib),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("MEALib average: %.1fx (paper: %.0fx)", avgMEALib(rows), paperAvg))
	return t
}

// RenderFigure9 produces the printable comparison.
func RenderFigure9() (*Table, error) {
	rows, err := Figure9()
	if err != nil {
		return nil, err
	}
	return renderGains("Figure 9: performance improvement over MKL on Haswell (x)", rows, 38), nil
}

// RenderFigure10 produces the printable comparison.
func RenderFigure10() (*Table, error) {
	rows, err := Figure10()
	if err != nil {
		return nil, err
	}
	return renderGains("Figure 10: energy-efficiency improvement over MKL on Haswell (x)", rows, 75), nil
}
