package platform

import (
	"math"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/units"
)

func TestAllPlatformsValid(t *testing.T) {
	for _, p := range All() {
		if err := p.validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	p := Haswell()
	p.Name = ""
	if err := p.validate(); err == nil {
		t.Error("empty name must fail")
	}
	p2 := Haswell()
	p2.MemBW = 0
	if err := p2.validate(); err == nil {
		t.Error("zero bandwidth must fail")
	}
	p3 := Haswell()
	p3.Eff[descriptor.OpFFT] = 0
	if err := p3.validate(); err == nil {
		t.Error("zero efficiency must fail")
	}
	p4 := Haswell()
	p4.Power[descriptor.OpFFT] = 0
	if err := p4.validate(); err == nil {
		t.Error("zero power must fail")
	}
}

func TestTable3Numbers(t *testing.T) {
	if got := Haswell().MemBW.GBs(); math.Abs(got-25.6) > 0.01 {
		t.Errorf("Haswell bandwidth %.1f, want 25.6", got)
	}
	if got := XeonPhi().MemBW.GBs(); math.Abs(got-320) > 0.01 {
		t.Errorf("Phi bandwidth %.1f, want 320", got)
	}
	if got := MSAS().MemBW.GBs(); math.Abs(got-102.4) > 0.01 {
		t.Errorf("MSAS bandwidth %.1f, want 102.4", got)
	}
	if got := MEALib().MemBW.GBs(); math.Abs(got-510) > 0.01 {
		t.Errorf("MEALib bandwidth %.1f, want 510", got)
	}
	if XeonPhi().Cores != 60 || Haswell().Cores != 4 {
		t.Error("Table 3 core counts wrong")
	}
}

func TestRunUnknownOp(t *testing.T) {
	p := Haswell()
	if _, err := p.Run(descriptor.OpCode(99), Workload{Flops: 1, Bytes: 1}); err == nil {
		t.Error("unknown op must fail")
	}
}

// speedup returns perf(p)/perf(base) on op's standard workload.
func speedup(t *testing.T, base, p *Platform, op descriptor.OpCode) float64 {
	t.Helper()
	w := StandardWorkloads()[op]
	rb, err := base.Run(op, w)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := p.Run(op, w)
	if err != nil {
		t.Fatal(err)
	}
	return float64(rb.Time) / float64(rp.Time)
}

// energyGain returns (flops/J of p) / (flops/J of base).
func energyGain(t *testing.T, base, p *Platform, op descriptor.OpCode) float64 {
	t.Helper()
	w := StandardWorkloads()[op]
	rb, err := base.Run(op, w)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := p.Run(op, w)
	if err != nil {
		t.Fatal(err)
	}
	return float64(rb.Energy) / float64(rp.Energy)
}

// Paper Figure 9: MEALib per-op performance gains over Haswell/MKL.
func TestFigure9MEALibPerOpGains(t *testing.T) {
	want := map[descriptor.OpCode]float64{
		descriptor.OpAXPY:  39.0,
		descriptor.OpDOT:   35.1,
		descriptor.OpGEMV:  20.4,
		descriptor.OpSPMV:  10.9,
		descriptor.OpRESMP: 13.3,
		descriptor.OpFFT:   59.2,
		descriptor.OpRESHP: 88.4,
	}
	h, m := Haswell(), MEALib()
	for op, wantGain := range want {
		got := speedup(t, h, m, op)
		if math.Abs(got-wantGain)/wantGain > 0.10 {
			t.Errorf("%v: speedup %.1f, paper %.1f", op, got, wantGain)
		}
	}
}

func TestFigure9Averages(t *testing.T) {
	h := Haswell()
	avg := func(p *Platform) float64 {
		var sum float64
		for _, op := range accel.Ops() {
			sum += speedup(t, h, p, op)
		}
		return sum / float64(len(accel.Ops()))
	}
	// Paper: MEALib 38x, PSAS 2.51x, MSAS 10.32x on average.
	if got := avg(MEALib()); math.Abs(got-38)/38 > 0.10 {
		t.Errorf("MEALib average speedup %.1f, paper 38", got)
	}
	if got := avg(PSAS()); math.Abs(got-2.51)/2.51 > 0.15 {
		t.Errorf("PSAS average speedup %.2f, paper 2.51", got)
	}
	if got := avg(MSAS()); math.Abs(got-10.32)/10.32 > 0.15 {
		t.Errorf("MSAS average speedup %.2f, paper 10.32", got)
	}
}

func TestFigure9XeonPhiEndpoints(t *testing.T) {
	h, x := Haswell(), XeonPhi()
	// Paper: AXPY 2.23x best case, RESHP 2.4% worst case.
	if got := speedup(t, h, x, descriptor.OpAXPY); math.Abs(got-2.23)/2.23 > 0.10 {
		t.Errorf("Phi AXPY speedup %.2f, paper 2.23", got)
	}
	if got := speedup(t, h, x, descriptor.OpRESHP); math.Abs(got-0.024)/0.024 > 0.15 {
		t.Errorf("Phi RESHP relative perf %.3f, paper 0.024", got)
	}
}

// Paper Figure 10: MEALib per-op energy-efficiency gains over Haswell.
func TestFigure10MEALibEnergyGains(t *testing.T) {
	want := map[descriptor.OpCode]float64{
		descriptor.OpAXPY:  88.7,
		descriptor.OpDOT:   61.7,
		descriptor.OpGEMV:  57.3,
		descriptor.OpSPMV:  32.9,
		descriptor.OpRESMP: 36.4,
		descriptor.OpFFT:   150.4,
		descriptor.OpRESHP: 96.6,
	}
	h, m := Haswell(), MEALib()
	var sum float64
	for op, wantGain := range want {
		got := energyGain(t, h, m, op)
		sum += got
		if math.Abs(got-wantGain)/wantGain > 0.12 {
			t.Errorf("%v: energy gain %.1f, paper %.1f", op, got, wantGain)
		}
	}
	// Paper: 75x on average.
	if avg := sum / 7; math.Abs(avg-75)/75 > 0.10 {
		t.Errorf("average energy gain %.1f, paper 75", avg)
	}
}

func TestFFTPowerQuotes(t *testing.T) {
	// §5.1: FFT power 48 W Haswell, 130 W Phi, 41 W MSAS, ~19 W MEALib.
	if got := float64(Haswell().Power[descriptor.OpFFT]); got != 48 {
		t.Errorf("Haswell FFT power %v, want 48", got)
	}
	if got := float64(XeonPhi().Power[descriptor.OpFFT]); got != 130 {
		t.Errorf("Phi FFT power %v, want 130", got)
	}
	if got := float64(MSAS().Power[descriptor.OpFFT]); got != 41 {
		t.Errorf("MSAS FFT power %v, want 41", got)
	}
	if got := float64(MEALib().Power[descriptor.OpFFT]); math.Abs(got-19) > 0.5 {
		t.Errorf("MEALib FFT power %v, want ~19", got)
	}
}

func TestComputeBoundCeiling(t *testing.T) {
	// A tiny, flop-heavy workload must be bound by Peak, not bandwidth.
	p := Haswell()
	w := Workload{Flops: 1e12, Bytes: 1}
	r, err := p.Run(descriptor.OpGEMV, w)
	if err != nil {
		t.Fatal(err)
	}
	wantT := units.Seconds(1e12 / float64(p.Peak))
	if math.Abs(float64(r.Time-wantT))/float64(wantT) > 1e-9 {
		t.Errorf("compute-bound time %v, want %v", r.Time, wantT)
	}
}

func TestResultRates(t *testing.T) {
	w := Workload{Flops: 2e9, Bytes: 1e9}
	r := Result{Time: 1}
	if got := r.rate(w).G(); math.Abs(got-2) > 1e-9 {
		t.Errorf("rate = %v GFLOPS, want 2", got)
	}
	if got := r.throughput(w).GBs(); math.Abs(got-1) > 1e-9 {
		t.Errorf("throughput = %v GB/s, want 1", got)
	}
	zero := Result{}
	if zero.rate(w) != 0 || zero.throughput(w) != 0 {
		t.Error("zero time must yield zero rates, not Inf")
	}
}

func TestTable2DataSets(t *testing.T) {
	ds := StandardDataSets()
	if len(ds) != 7 {
		t.Fatalf("data sets = %d, want 7 (Table 2)", len(ds))
	}
	seen := map[descriptor.OpCode]bool{}
	for _, d := range ds {
		if seen[d.Op] {
			t.Errorf("duplicate data set for %v", d.Op)
		}
		seen[d.Op] = true
		if d.Load.Bytes <= 0 {
			t.Errorf("%v: non-positive bytes", d.Op)
		}
		if d.Op != descriptor.OpRESHP && d.Load.Flops <= 0 {
			t.Errorf("%v: non-positive flops", d.Op)
		}
	}
	// RESHP has no floating point work (paper footnote 3).
	if w := StandardWorkloads()[descriptor.OpRESHP]; w.Flops != 0 {
		t.Error("RESHP workload must have zero flops")
	}
	// AXPY data set is the 1 GB vector: 3 streams of 1 GB.
	if w := StandardWorkloads()[descriptor.OpAXPY]; w.Bytes != 3*(256<<20)*4 {
		t.Errorf("AXPY bytes = %v", w.Bytes)
	}
}

// All memory-bounded ops on all platforms must actually be memory-bound on
// the Table 2 data sets (the paper's premise).
func TestWorkloadsAreMemoryBound(t *testing.T) {
	for _, p := range All() {
		for _, ds := range StandardDataSets() {
			eff := p.Eff[ds.Op]
			memT := float64(ds.Load.Bytes) / (float64(p.MemBW) * eff)
			compT := float64(ds.Load.Flops) / float64(p.Peak)
			if compT > memT {
				t.Errorf("%s/%v: compute-bound (comp %.3g s > mem %.3g s)", p.Name, ds.Op, compT, memT)
			}
		}
	}
}
