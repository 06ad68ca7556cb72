package stap

import (
	"testing"

	"mealib/internal/cpu"
	"mealib/internal/units"
)

func TestParamsDerived(t *testing.T) {
	p := Large()
	if p.Dof() != 32 {
		t.Errorf("Dof = %d", p.Dof())
	}
	if p.DatacubeElems() != 8*256*12288 {
		t.Errorf("datacube = %d", p.DatacubeElems())
	}
	if p.DotCalls() != 256*16*16*80 {
		t.Errorf("dot calls = %d", p.DotCalls())
	}
}

func TestStagesShape(t *testing.T) {
	st := Stages(Medium())
	if len(st) != 6 {
		t.Fatalf("stages = %d, want 6 (Table 4 order)", len(st))
	}
	computeCount := 0
	for _, s := range st {
		if s.Compute {
			computeCount++
			if s.Flops <= 0 {
				t.Errorf("%s: compute stage without flops", s.Name)
			}
		} else if s.Bytes <= 0 {
			t.Errorf("%s: memory stage without traffic", s.Name)
		}
	}
	if computeCount != 2 {
		t.Errorf("compute stages = %d, want 2 (cherk, ctrsm)", computeCount)
	}
}

// Figure 13: performance gains 2.0/2.3/3.2 and EDP gains 4.5/9.0/10.2 for
// small/medium/large. The reproduction must land in the same bands and be
// monotone in data-set size.
func TestFigure13Gains(t *testing.T) {
	type band struct{ perfLo, perfHi, edpLo, edpHi float64 }
	cases := []struct {
		p Params
		b band
	}{
		{Small(), band{1.7, 2.5, 3.5, 5.5}},
		{Medium(), band{2.0, 3.3, 7.0, 11.0}},
		{Large(), band{2.8, 3.8, 9.0, 14.0}},
	}
	var prevPerf, prevEDP float64
	for _, c := range cases {
		g, err := Compare(c.p)
		if err != nil {
			t.Fatal(err)
		}
		if g.Performance < c.b.perfLo || g.Performance > c.b.perfHi {
			t.Errorf("%s: perf gain %.2f outside [%.1f, %.1f] (paper band)",
				c.p.Name, g.Performance, c.b.perfLo, c.b.perfHi)
		}
		if g.EDP < c.b.edpLo || g.EDP > c.b.edpHi {
			t.Errorf("%s: EDP gain %.2f outside [%.1f, %.1f] (paper band)",
				c.p.Name, g.EDP, c.b.edpLo, c.b.edpHi)
		}
		if g.Performance <= prevPerf || g.EDP <= prevEDP {
			t.Errorf("%s: gains must grow with data-set size", c.p.Name)
		}
		prevPerf, prevEDP = g.Performance, g.EDP
	}
}

// Figure 14: the breakdown of the large run.
func TestFigure14Breakdown(t *testing.T) {
	g, err := Compare(Large())
	if err != nil {
		t.Fatal(err)
	}
	ht, he := g.MEALib.HostShare()
	// Paper: host ~75% of time, ~90% of energy.
	if ht < 0.65 || ht > 0.9 {
		t.Errorf("host time share %.2f, paper ~0.75", ht)
	}
	if he < 0.8 || he > 0.95 {
		t.Errorf("host energy share %.2f, paper ~0.90", he)
	}
	ts, es := g.MEALib.AccelShares()
	// Paper: DOT ~60% of accelerator time, ~76% of energy.
	if ts["DOT"] < 0.45 || ts["DOT"] > 0.75 {
		t.Errorf("DOT time share %.2f, paper ~0.60", ts["DOT"])
	}
	if es["DOT"] < 0.4 || es["DOT"] > 0.85 {
		t.Errorf("DOT energy share %.2f, paper ~0.76", es["DOT"])
	}
	// Paper: AXPY is the smallest consumer (3.1%/3.8%).
	if ts["AXPY"] >= ts["DOT"] || ts["AXPY"] >= ts["FFT"] || ts["AXPY"] > 0.06 {
		t.Errorf("AXPY time share %.3f must be the smallest", ts["AXPY"])
	}
	// Paper: invocation 3.3% time / 7.1% energy.
	if ts["Invocation"] < 0.01 || ts["Invocation"] > 0.10 {
		t.Errorf("invocation time share %.3f, paper 0.033", ts["Invocation"])
	}
	if es["Invocation"] < 0.02 || es["Invocation"] > 0.15 {
		t.Errorf("invocation energy share %.3f, paper 0.071", es["Invocation"])
	}
	if g.MEALib.Descriptors != 3 {
		t.Errorf("descriptors = %d, want 3 (§5.5)", g.MEALib.Descriptors)
	}
}

func TestHaswellRunAccumulates(t *testing.T) {
	h, err := RunHaswell(Small(), cpu.Haswell())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Stages) != 6 {
		t.Fatalf("stages = %d", len(h.Stages))
	}
	var sum float64
	for _, s := range h.Stages {
		if !s.OnHost {
			t.Error("Haswell run must keep every stage on the host")
		}
		if s.Time <= 0 || s.Energy <= 0 {
			t.Errorf("%s: non-positive cost", s.Stage.Name)
		}
		sum += float64(s.Time)
	}
	if !units.CloseTo(float64(h.Time), sum) {
		t.Error("total time must sum stage times")
	}
	if h.InvocationTime != 0 {
		t.Error("Haswell run has no invocation overhead")
	}
	hs, _ := h.HostShare()
	if hs != 1 {
		t.Errorf("host share = %v, want 1", hs)
	}
}
