package exp

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/cache"
	"mealib/internal/cpu"
	"mealib/internal/descriptor"
	"mealib/internal/dram"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// AblationRow quantifies one of the design choices DESIGN.md calls out by
// comparing the design against its removal.
type AblationRow struct {
	Design string
	Metric string
	Value  float64
}

// Ablations evaluates every DESIGN.md ablation with the models.
func Ablations() ([]AblationRow, error) {
	var rows []AblationRow

	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		return nil, err
	}

	// 1. Hardware chaining vs DRAM round-trip (accelerator time only; the
	// invocation-overhead component is Figure 12a).
	// A RESMP feeding a batch of short FFTs: both stages are bandwidth
	// bound, and the intermediate (4 MiB) fits the aggregate tile-local
	// memory, so the whole DRAM round trip disappears. (Oversized
	// intermediates spill — see TestChainingSpillsBeyondLocalMemory — which
	// is why the SAR pipeline chains row by row.) The separate passes are
	// priced on a layer that does not fuse: the default one would chain them
	// too, and compare chaining with itself.
	elems := int64(1) << 19 // 4 MiB of complex64
	resmp := accel.ResmpArgs{
		NIn: elems + elems/4, NOut: elems, Kind: accel.ResmpComplex,
		Src: 0x1000_0000, Dst: 0x2000_0000,
	}.Params()
	fft := accel.FFTArgs{N: 64, HowMany: elems / 64, Src: 0x2000_0000, Dst: 0x2000_0000}.Params()
	chained := &descriptor.Descriptor{}
	_ = chained.AddComp(descriptor.OpRESMP, resmp)
	_ = chained.AddComp(descriptor.OpFFT, fft)
	chained.AddEndPass()
	separate := &descriptor.Descriptor{}
	_ = separate.AddComp(descriptor.OpRESMP, resmp)
	separate.AddEndPass()
	_ = separate.AddComp(descriptor.OpFFT, fft)
	separate.AddEndPass()
	rc, err := layer.RunModel(chained)
	if err != nil {
		return nil, err
	}
	unfusedCfg := accel.MEALibConfig()
	unfusedCfg.NoFusion = true
	unfused, err := accel.NewLayer(unfusedCfg)
	if err != nil {
		return nil, err
	}
	rs, err := unfused.RunModel(separate)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Design: "hardware chaining (intermediate via LM)",
		Metric: "accel-time speedup vs DRAM round-trip",
		Value:  float64(rs.Time) / float64(rc.Time),
	})

	// 2. LOOP compaction vs per-call descriptors (includes invocation cost).
	loop, err := Figure12Loop([]int{512}, 128)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Design: "LOOP descriptor compaction",
		Metric: "speedup vs 128 software invocations (512^2 FFT)",
		Value:  loop[0].SpeedupHWoverSW,
	})

	// 3. Tiled per-vault accelerators vs one tile.
	mkTiles := func(tiles int) (*accel.Config, error) {
		cfg := accel.MEALibConfig()
		cfg.Tiles = tiles
		cfg.StreamEfficiency = 0.95 * float64(tiles) / 16
		return cfg, cfg.Validate()
	}
	w := accel.Work{InStream: 1 * units.GiB, Flops: 1e9}
	one, err := mkTiles(1)
	if err != nil {
		return nil, err
	}
	sixteen, err := mkTiles(16)
	if err != nil {
		return nil, err
	}
	cOne, err := one.OpCost(descriptor.OpAXPY, w)
	if err != nil {
		return nil, err
	}
	cSixteen, err := sixteen.OpCost(descriptor.OpAXPY, w)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Design: "16 tiles (one per vault) vs 1 tile",
		Metric: "AXPY speedup from vault-level parallelism",
		Value:  float64(cOne.Time) / float64(cSixteen.Time),
	})

	// 4. Row-buffer size: streaming energy with 64 B vs 512 B rows.
	runRow := func(rowBytes units.Bytes) (dram.Stats, error) {
		cfg := dram.HMC3D()
		cfg.RowBytes = rowBytes
		sim, err := dram.NewSimulator(cfg)
		if err != nil {
			return dram.Stats{}, err
		}
		for a := phys.Addr(0); a < 1<<21; a += 256 {
			sim.Access(dram.Request{Addr: a, Size: 256})
		}
		return sim.Finalize(), nil
	}
	small, err := runRow(64)
	if err != nil {
		return nil, err
	}
	big, err := runRow(512)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Design: "64 B vs 512 B DRAM rows",
		Metric: "streaming energy overhead of small rows",
		Value:  float64(small.Energy()) / float64(big.Energy()),
	})

	// 5. Coherence flush: dirty- vs clean-cache invocation overhead.
	host := cpu.Haswell()
	setup := mealibrt.DefaultConfig().DescriptorSetupLatency
	dirtyT, _ := mealibrt.InvocationOverhead(host, setup, 4*units.KiB, cache.Haswell().LLC())
	cleanT, _ := mealibrt.InvocationOverhead(host, setup, 4*units.KiB, 0)
	rows = append(rows, AblationRow{
		Design: "wbinvd coherence flush",
		Metric: "dirty-cache vs clean-cache overhead",
		Value:  float64(dirtyT) / float64(cleanT),
	})

	// 6. Local vs remote memory-stack placement.
	remoteCfg := accel.MEALibConfig()
	remoteCfg.StackOf = func(a phys.Addr) int {
		if a < 0x8000_0000 {
			return 0
		}
		return 1
	}
	remoteLayer, err := accel.NewLayer(remoteCfg)
	if err != nil {
		return nil, err
	}
	mkAxpy := func(base phys.Addr) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		_ = d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: 1 << 20, X: base, Y: base + 1<<23, IncX: 1, IncY: 1,
		}.Params())
		d.AddEndPass()
		return d
	}
	local, err := remoteLayer.RunModel(mkAxpy(0x1000_0000))
	if err != nil {
		return nil, err
	}
	remote, err := remoteLayer.RunModel(mkAxpy(0x9000_0000))
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Design: "local (LMS) vs remote (RMS) buffer placement",
		Metric: "remote-stack slowdown over inter-stack links",
		Value:  float64(remote.Time) / float64(local.Time),
	})

	return rows, nil
}

// RenderAblations produces the printable table.
func RenderAblations() (*Table, error) {
	rows, err := Ablations()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablations: DESIGN.md design choices, quantified",
		Columns: []string{"Design choice", "Metric", "Factor"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Design, r.Metric, fmt.Sprintf("%.2fx", r.Value)})
	}
	return t, nil
}
