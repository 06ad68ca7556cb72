package accel

import (
	"math"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/noc"
	"mealib/internal/units"
)

// TestRunModelScalesLoopsInConstantWork checks the O(1)-per-loop evaluation:
// a million-iteration loop must cost the same to *evaluate* as a one-
// iteration loop (the reported hardware time scales, the wall time doesn't).
func TestRunModelScalesLoopsInConstantWork(t *testing.T) {
	layer, err := NewLayer(MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := func(iters uint32) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		_ = d.AddLoop(iters)
		_ = d.AddComp(descriptor.OpDOT, DotArgs{
			N: 32, Complex: true, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1,
			LoopStrideX: Lin(256),
		}.Params())
		d.AddEndPass()
		d.AddEndLoop()
		return d
	}
	small, err := layer.RunModel(build(1))
	if err != nil {
		t.Fatal(err)
	}
	big, err := layer.RunModel(build(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	if big.Comps != int64(1<<20) {
		t.Errorf("comps = %d", big.Comps)
	}
	// Hardware time scales with the iteration count (modulo the fixed
	// per-pass configuration charge and the CU fetch/decode time).
	fixedSmall := layer.Config().PassConfigLatency + small.FetchDecodeTime
	fixedBig := layer.Config().PassConfigLatency + big.FetchDecodeTime
	perIterSmall := float64(small.Time - fixedSmall)
	perIterBig := float64(big.Time-fixedBig) / float64(1<<20)
	if math.Abs(perIterSmall-perIterBig)/perIterSmall > 1e-6 {
		t.Errorf("per-iteration time diverges: %g vs %g", perIterSmall, perIterBig)
	}
}

func TestRunModelValidates(t *testing.T) {
	layer, err := NewLayer(MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	_ = d.AddComp(descriptor.OpAXPY, nil) // unterminated pass
	if _, err := layer.RunModel(d); err == nil {
		t.Error("invalid descriptor must fail")
	}
}

// TestDatapathRateOverride prices compute at the entry's datapath rate, the
// generic PE rate when the entry gives none, and fails an opcode the table
// does not declare with Bind's error.
func TestDatapathRateOverride(t *testing.T) {
	cfg := MEALibConfig()
	w := Work{Flops: 1e9} // pure compute
	fft, err := cfg.OpCost(descriptor.OpFFT, w)
	if err != nil {
		t.Fatal(err)
	}
	// FFT runs on the 2 TFLOPS hardwired datapath.
	want := units.Seconds(1e9 / 2000e9)
	if math.Abs(float64(fft.Time-want))/float64(want) > 1e-9 {
		t.Errorf("FFT compute time %v, want %v", fft.Time, want)
	}
	gemv, err := cfg.OpCost(descriptor.OpGEMV, w)
	if err != nil {
		t.Fatal(err)
	}
	if gemv.Time <= fft.Time {
		t.Error("GEMV's 512 GFLOPS datapath must be slower than FFT's 2 TFLOPS")
	}
	// RESHP has no rate of its own: the generic PE rate applies.
	reshp, err := cfg.OpCost(descriptor.OpRESHP, w)
	if err != nil {
		t.Fatal(err)
	}
	if want := units.Seconds(1e9 / float64(cfg.PeakFlops())); !units.CloseTo(float64(reshp.Time), float64(want)) {
		t.Errorf("RESHP compute time %v, want %v at the generic PE rate", reshp.Time, want)
	}
	_, bindErr := Bind(descriptor.OpInvalid, nil)
	if _, err := cfg.OpCost(descriptor.OpInvalid, w); err == nil || bindErr == nil || err.Error() != bindErr.Error() {
		t.Errorf("unknown opcode priced with error %v, want Bind's %v", err, bindErr)
	}
}

func TestConfigUnitCapacity(t *testing.T) {
	cu := DefaultConfigUnit()
	// A LOOP-compacted descriptor is tiny and always fits.
	small := &descriptor.Descriptor{}
	_ = small.AddLoop(1 << 24)
	_ = small.AddComp(descriptor.OpDOT, DotArgs{N: 32, IncX: 1, IncY: 1}.Params())
	small.AddEndPass()
	small.AddEndLoop()
	if err := cu.CheckCapacity(small); err != nil {
		t.Errorf("compacted descriptor must fit IMEM: %v", err)
	}
	// Thousands of individual COMP instructions eventually exceed the IMEM
	// — the hardware reason the compiler's LOOP compaction exists.
	big := &descriptor.Descriptor{}
	for i := 0; i < 4000; i++ {
		_ = big.AddComp(descriptor.OpDOT, DotArgs{N: 32, IncX: 1, IncY: 1}.Params())
		big.AddEndPass()
	}
	if err := cu.CheckCapacity(big); err == nil {
		t.Error("4000 individual comps must exceed the 64 KiB IMEM")
	}
	layer, err := NewLayer(MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layer.RunModel(big); err == nil {
		t.Error("RunModel must enforce IMEM capacity")
	}
}

func TestConfigUnitFetchDecodeTime(t *testing.T) {
	cu := DefaultConfigUnit()
	if err := cu.Validate(); err != nil {
		t.Fatal(err)
	}
	d1 := &descriptor.Descriptor{}
	_ = d1.AddComp(descriptor.OpAXPY, AxpyArgs{N: 1, IncX: 1, IncY: 1}.Params())
	d1.AddEndPass()
	d2 := &descriptor.Descriptor{}
	for i := 0; i < 16; i++ {
		_ = d2.AddComp(descriptor.OpAXPY, AxpyArgs{N: 1, IncX: 1, IncY: 1}.Params())
		d2.AddEndPass()
	}
	if cu.FetchDecodeTime(d2) <= cu.FetchDecodeTime(d1) {
		t.Error("bigger descriptors must take longer to fetch and decode")
	}
	bad := ConfigUnit{}
	if err := bad.Validate(); err == nil {
		t.Error("zero config unit must fail validation")
	}
}

func TestChainingSpillsBeyondLocalMemory(t *testing.T) {
	layer, err := NewLayer(MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	lmCap := layer.Config().LMBytes * units.Bytes(layer.Config().Tiles)
	// An intermediate far larger than the aggregate LM: most of it must
	// spill to DRAM.
	n := int64(lmCap) // complex64 elements -> 8x the LM capacity in bytes
	d := &descriptor.Descriptor{}
	_ = d.AddComp(descriptor.OpRESHP, ReshpArgs{Rows: 1, Cols: n, Elem: ElemC64, Src: 0x1000, Dst: 0x2000}.Params())
	_ = d.AddComp(descriptor.OpFFT, FFTArgs{N: 64, HowMany: n / 64, Src: 0x2000, Dst: 0x2000}.Params())
	d.AddEndPass()
	rep, err := layer.RunModel(d)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LMSpillBytes == 0 {
		t.Error("oversized intermediate must spill")
	}
	if rep.NoCBytes != lmCap {
		t.Errorf("chained bytes = %v, want LM capacity %v", rep.NoCBytes, lmCap)
	}
	wantSpill := units.Bytes(8*n) - lmCap
	if rep.LMSpillBytes != wantSpill {
		t.Errorf("spill = %v, want %v", rep.LMSpillBytes, wantSpill)
	}
}

// TestStagingCostIsAnInterStackSend pins the promise of
// noc.MEALibInterStack's doc comment: the accelerator model's link is the
// inter-stack network's, so for the same bytes StagingCost is a Send's
// serialisation time (end - start - LinkLatency) and its energy.
func TestStagingCostIsAnInterStackSend(t *testing.T) {
	cfg := MEALibConfig()
	for _, b := range []units.Bytes{1, 3, 4096, 65537, 1 << 20, 3<<20 + 5} {
		link := noc.MEALibInterStack(2)
		net, err := noc.NewInterStack(*link)
		if err != nil {
			t.Fatal(err)
		}
		start, end, err := net.Send(0, 1, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		tStage, eStage := cfg.StagingCost(b)
		// The port's occupancy is the serialisation bit for bit; the
		// latency subtracted back out of end may round in the last place.
		if !exactly(float64(net.EgressBusy(0)), float64(tStage)) ||
			!units.CloseTo(float64(end-start-link.LinkLatency), float64(tStage)) {
			t.Errorf("%d B: StagingCost time %v, Send serialises for %v (busy %v)",
				b, tStage, end-start-link.LinkLatency, net.EgressBusy(0))
		}
		if !exactly(float64(net.Energy()), float64(eStage)) {
			t.Errorf("%d B: StagingCost energy %v, Send %v", b, eStage, net.Energy())
		}
	}
}
