package exp

import (
	"math/rand"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// chainGateRun executes the CHAIN shape (RESMP feeding FFT, looped over
// disjoint rows) once on a traced layer and returns the accelerator's DRAM
// traffic counters.
func chainGateRun(t *testing.T, noFusion bool) (moved, elided, groups int64) {
	t.Helper()
	const arena phys.Addr = 0x10000
	s := phys.NewSpace(256 * units.MiB)
	if _, err := s.Map(arena, 32*units.MiB); err != nil {
		t.Fatal(err)
	}
	tr := telemetry.New()
	cfg := accel.MEALibConfig()
	cfg.NoFusion = noFusion
	cfg.Tracer = tr
	l, err := accel.NewLayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nin, n, iters = 768, 1024, 32
	// Raw rows, image rows, then the descriptor, each 64-byte aligned so the
	// cores' views stay zero-copy.
	ra := arena
	ia := ra + 8*nin*iters
	base := ia + 8*n*iters
	rng := rand.New(rand.NewSource(12))
	raw := make([]complex64, nin*iters)
	for i := range raw {
		raw[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	if err := phys.Store(s, ra, raw); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(iters); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpRESMP, accel.ResmpArgs{
		NIn: nin, NOut: n, Kind: accel.ResmpComplex + int64(kernels.InterpLinear),
		Src: ra, Dst: ia,
		LoopStrideSrc: accel.Lin(8 * nin), LoopStrideDst: accel.Lin(8 * n),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, accel.FFTArgs{
		N: n, HowMany: 1, Src: ia, Dst: ia,
		LoopStrideSrc: accel.Lin(8 * n), LoopStrideDst: accel.Lin(8 * n),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if _, err := l.RunPlain(s, d, base); err != nil {
		t.Fatal(err)
	}
	m := tr.Metrics()
	return m.Counter("accel.bytes_moved").Value(),
		m.Counter("accel.bytes_elided").Value(),
		m.Counter("accel.fused_groups").Value()
}

// TestFusionGate is the CI gate for the fusion pass: running the CHAIN
// shape with fusion on must move strictly fewer DRAM bytes than with fusion
// off, by exactly the size of the elided intermediate (one 8 KiB row stored
// and re-loaded per loop iteration).
//
// Gate (check.sh): fusion traffic.
func TestFusionGate(t *testing.T) {
	movedOn, elidedOn, groupsOn := chainGateRun(t, false)
	movedOff, elidedOff, groupsOff := chainGateRun(t, true)
	if elidedOff != 0 || groupsOff != 0 {
		t.Fatalf("fusion off still elided %d B in %d groups", elidedOff, groupsOff)
	}
	if groupsOn != 1 {
		t.Errorf("fused groups = %d, want 1", groupsOn)
	}
	// RESMP stores the 8 KiB intermediate row and FFT loads it back, 32
	// iterations: 2 * 8192 * 32 bytes of round-trip traffic fused away.
	const wantElided = 2 * 8192 * 32
	if elidedOn != wantElided {
		t.Errorf("bytes elided = %d, want %d", elidedOn, wantElided)
	}
	if movedOn >= movedOff {
		t.Errorf("fusion did not reduce DRAM traffic: %d on vs %d off", movedOn, movedOff)
	}
	// Conservation: fusion only removes the intermediate's round trip.
	if movedOn+elidedOn != movedOff {
		t.Errorf("traffic accounting broken: %d moved + %d elided != %d unfused", movedOn, elidedOn, movedOff)
	}
}
