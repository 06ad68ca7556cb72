package dram

import (
	"math/rand"
	"testing"

	"mealib/internal/phys"
	"mealib/internal/units"
)

func mustSim(t *testing.T, cfg *Config) *Simulator {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	bad := []*Config{
		{Name: "zero"},
		func() *Config { c := HMC3D(); c.Channels = 0; return c }(),
		func() *Config { c := HMC3D(); c.AccessBytes = c.RowBytes * 2; return c }(),
		func() *Config { c := HMC3D(); c.ChannelBW = 0; return c }(),
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %q should fail validation", c.Name)
		}
	}
	for _, c := range []*Config{HMC3D(), DDR3()} {
		if err := c.Validate(); err != nil {
			t.Errorf("stock config %q invalid: %v", c.Name, err)
		}
	}
}

func TestPeakBandwidths(t *testing.T) {
	// Table 3 of the paper.
	if got := HMC3D().PeakBandwidth().GBs(); got < 509 || got > 511 {
		t.Errorf("HMC3D peak = %.1f GB/s, want 510", got)
	}
	if got := DDR3().PeakBandwidth().GBs(); got < 25.5 || got > 25.7 {
		t.Errorf("DDR3 peak = %.1f GB/s, want 25.6", got)
	}
}

func sequentialTrace(n units.Bytes, step units.Bytes, write bool) []Request {
	var tr []Request
	for a := units.Bytes(0); a < n; a += step {
		sz := step
		if a+sz > n {
			sz = n - a
		}
		tr = append(tr, Request{Addr: phys.Addr(a), Size: sz, Write: write})
	}
	return tr
}

func TestStreamingApproachesPeak(t *testing.T) {
	s := mustSim(t, HMC3D())
	st := s.Run(sequentialTrace(4*units.MiB, 256, false))
	peak := s.config().PeakBandwidth().GBs()
	got := st.Bandwidth().GBs()
	if got < 0.7*peak {
		t.Errorf("streaming bandwidth %.1f GB/s, want >= 70%% of peak %.1f", got, peak)
	}
	if got > peak*1.001 {
		t.Errorf("streaming bandwidth %.1f GB/s exceeds peak %.1f", got, peak)
	}
}

func TestRandomSlowerThanStreaming(t *testing.T) {
	cfg := DDR3()
	seqSim := mustSim(t, cfg)
	seq := seqSim.Run(sequentialTrace(1*units.MiB, 64, false))

	rng := rand.New(rand.NewSource(7))
	var tr []Request
	for i := 0; i < 1<<14; i++ {
		a := phys.Addr(rng.Int63n(1<<30)) &^ 63
		tr = append(tr, Request{Addr: a, Size: 64})
	}
	rndSim := mustSim(t, cfg)
	rnd := rndSim.Run(tr)

	if rnd.Bandwidth() >= seq.Bandwidth() {
		t.Errorf("random bandwidth %v not below streaming %v", rnd.Bandwidth(), seq.Bandwidth())
	}
	if rnd.RowHitRate() >= seq.RowHitRate() {
		t.Errorf("random hit rate %.2f not below streaming %.2f", rnd.RowHitRate(), seq.RowHitRate())
	}
	if seq.RowHitRate() < 0.9 {
		t.Errorf("streaming DDR3 hit rate %.2f, want >= 0.9 (8KiB rows)", seq.RowHitRate())
	}
}

func TestEnergyAccounting(t *testing.T) {
	s := mustSim(t, HMC3D())
	st := s.Run(sequentialTrace(256*units.KiB, 256, true))
	if st.DynamicEnergy <= 0 || st.BackgroundEnergy <= 0 {
		t.Fatalf("energies must be positive: %v / %v", st.DynamicEnergy, st.BackgroundEnergy)
	}
	if !units.CloseTo(float64(st.Energy()), float64(st.DynamicEnergy+st.BackgroundEnergy)) {
		t.Error("Energy() must sum components")
	}
	if st.BytesWritten != 256*units.KiB || st.BytesRead != 0 {
		t.Errorf("byte accounting: read %v written %v", st.BytesRead, st.BytesWritten)
	}
}

func TestRowMissCounting(t *testing.T) {
	cfg := HMC3D() // 256B rows == block size: every new 256B block is a new row
	s := mustSim(t, cfg)
	st := s.Run(sequentialTrace(16*256, 32, false))
	if st.RowMisses != 16 {
		t.Errorf("16 sequential rows: %d misses", st.RowMisses)
	}
	if st.RowHits != 16*8-16 {
		t.Errorf("row hits = %d, want %d", st.RowHits, 16*8-16)
	}
}

func TestRepeatedRowIsAllHitsAfterFirst(t *testing.T) {
	s := mustSim(t, DDR3())
	for i := 0; i < 100; i++ {
		s.Access(Request{Addr: 0, Size: 64})
	}
	st := s.Finalize()
	if st.RowMisses != 1 || st.RowHits != 99 {
		t.Errorf("same-row accesses: %d misses, %d hits", st.RowMisses, st.RowHits)
	}
}

func TestZeroSizeRequestIgnored(t *testing.T) {
	s := mustSim(t, HMC3D())
	s.Access(Request{Addr: 0, Size: 0})
	st := s.Finalize()
	if st.Reads != 0 || st.Time != 0 {
		t.Error("zero-size request must be a no-op")
	}
}

func TestResetClearsState(t *testing.T) {
	s := mustSim(t, HMC3D())
	s.Run(sequentialTrace(64*units.KiB, 256, false))
	s.Reset()
	st := s.Finalize()
	if st.Bytes() != 0 || st.Time != 0 || st.RowMisses != 0 {
		t.Errorf("state after Reset: %+v", st)
	}
}

func TestStreamEstimateMatchesTrace(t *testing.T) {
	// The analytic fast path must track the trace-driven result for
	// streaming loads within a few percent.
	for _, cfg := range []*Config{HMC3D(), DDR3()} {
		n := 8 * units.MiB
		sim := mustSim(t, cfg)
		traced := sim.Run(sequentialTrace(n, cfg.BlockBytes, false))
		est := mustSim(t, cfg).streamEstimate(n, false)
		relT := float64(traced.Time-est.Time) / float64(traced.Time)
		if relT < -0.15 || relT > 0.15 {
			t.Errorf("%s: estimate time %v vs traced %v (%.1f%% off)",
				cfg.Name, est.Time, traced.Time, 100*relT)
		}
		relE := float64(traced.Energy()-est.Energy()) / float64(traced.Energy())
		if relE < -0.15 || relE > 0.15 {
			t.Errorf("%s: estimate energy %v vs traced %v (%.1f%% off)",
				cfg.Name, est.Energy(), traced.Energy(), 100*relE)
		}
		if est.RowMisses != traced.RowMisses {
			t.Errorf("%s: estimate rows %d vs traced %d", cfg.Name, est.RowMisses, traced.RowMisses)
		}
	}
}

func TestStreamEstimateZero(t *testing.T) {
	s := mustSim(t, HMC3D())
	st := s.streamEstimate(0, false)
	if st.Bytes() != 0 || st.Time != 0 {
		t.Error("zero-byte estimate must be empty")
	}
}

func Test3DEnergyPerBitBelowDDR(t *testing.T) {
	// The core 3D-stacking claim: moving a byte internally costs much less
	// than over DDR pins.
	n := 4 * units.MiB
	e3d := mustSim(t, HMC3D()).streamEstimate(n, false)
	eddr := mustSim(t, DDR3()).streamEstimate(n, false)
	perBit3D := float64(e3d.DynamicEnergy) / (float64(n) * 8)
	perBitDDR := float64(eddr.DynamicEnergy) / (float64(n) * 8)
	if perBit3D >= perBitDDR/2 {
		t.Errorf("3D %.2f pJ/bit not well below DDR %.2f pJ/bit", perBit3D*1e12, perBitDDR*1e12)
	}
}

func TestAsymmetricModeValidation(t *testing.T) {
	cfg := DDR3()
	cfg.Mode = ModeAsymmetric
	cfg.Channels = 1
	if err := cfg.Validate(); err == nil {
		t.Error("asymmetric mode with one channel must fail")
	}
}

// Paper §4.1: removing a DIMM converts the high-address zone to
// single-channel mode, giving the experimenters an address range whose
// traffic is served by exactly one channel.
func TestAsymmetricModeIsolation(t *testing.T) {
	cfg := DDR3()
	cfg.Channels = 4
	cfg.Mode = ModeAsymmetric
	cfg.AsymmetricBoundary = 1 << 30
	s := mustSim(t, cfg)
	// Low-zone traffic spreads over the first three channels.
	lowChannels := map[int]bool{}
	for a := phys.Addr(0); a < 1<<16; a += 64 {
		ch, _, _ := s.decode(a)
		lowChannels[ch] = true
		if ch == 3 {
			t.Fatalf("low-zone address %v mapped to the isolated channel", a)
		}
	}
	if len(lowChannels) != 3 {
		t.Errorf("interleaved zone uses %d channels, want 3", len(lowChannels))
	}
	// High-zone traffic lands entirely on the last channel.
	for a := phys.Addr(1 << 30); a < (1<<30)+(1<<16); a += 64 {
		if ch, _, _ := s.decode(a); ch != 3 {
			t.Fatalf("high-zone address %v mapped to channel %d", a, ch)
		}
	}
}

func TestAsymmetricZoneBandwidthIsSingleChannel(t *testing.T) {
	cfg := DDR3()
	cfg.Channels = 4
	cfg.Mode = ModeAsymmetric
	cfg.AsymmetricBoundary = 1 << 30

	// Streaming the interleaved zone uses 3 channels...
	low := mustSim(t, cfg)
	lowStats := low.Run(sequentialTrace(1*units.MiB, 64, false))
	// ...while the isolated zone is held to one channel's rate.
	high := mustSim(t, cfg)
	var tr []Request
	for a := phys.Addr(1 << 30); a < phys.Addr(1<<30)+phys.Addr(1*units.MiB); a += 64 {
		tr = append(tr, Request{Addr: a, Size: 64})
	}
	highStats := high.Run(tr)

	ratio := lowStats.Bandwidth().GBs() / highStats.Bandwidth().GBs()
	if ratio < 2.4 || ratio > 3.6 {
		t.Errorf("interleaved/isolated bandwidth ratio = %.2f, want ~3 (3 channels vs 1)", ratio)
	}
	single := cfg.ChannelBW.GBs()
	if got := highStats.Bandwidth().GBs(); got > single*1.001 {
		t.Errorf("isolated zone reaches %.1f GB/s, above the single-channel peak %.1f", got, single)
	}
}
