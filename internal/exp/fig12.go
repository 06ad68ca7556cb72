package exp

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/cpu"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/par"
	"mealib/internal/units"
)

// Fig12Row compares software- and hardware-based configuration for one
// problem size.
type Fig12Row struct {
	Size            int
	Software        units.Seconds
	Hardware        units.Seconds
	SpeedupHWoverSW float64
}

// fig12System bundles the models the configuration-efficiency experiments
// evaluate against.
type fig12System struct {
	layer *accel.Layer
	host  *cpu.Host
	setup units.Seconds
}

func newFig12System() (*fig12System, error) {
	layer, err := accel.NewLayer(accel.MEALibConfig())
	if err != nil {
		return nil, err
	}
	return &fig12System{
		layer: layer,
		host:  cpu.Haswell(),
		setup: mealibrt.DefaultConfig().DescriptorSetupLatency,
	}, nil
}

// invocation returns the host-side overhead of launching one descriptor
// (flush of the dirty working set + descriptor copy).
func (s *fig12System) invocation(d *descriptor.Descriptor, dirty units.Bytes) units.Seconds {
	t, _ := mealibrt.InvocationOverhead(s.host, s.setup, d.Size(), dirty)
	return t
}

// run evaluates a descriptor analytically and returns total time including
// the invocation overhead.
func (s *fig12System) run(d *descriptor.Descriptor, dirty units.Bytes) (units.Seconds, error) {
	rep, err := s.layer.RunModel(d)
	if err != nil {
		return 0, err
	}
	return rep.Time + s.invocation(d, dirty), nil
}

// sarRowArgs builds per-row RESMP/FFT args for an n x n image (addresses
// are nominal: RunModel never dereferences them).
func sarRowArgs(n int) (descriptor.Params, descriptor.Params) {
	raw := int64(n + n/4)
	resmp := accel.ResmpArgs{
		NIn: raw, NOut: int64(n), Kind: accel.ResmpComplex,
		Src: 0x1000_0000, Dst: 0x2000_0000,
		LoopStrideSrc: accel.Lin(8 * raw), LoopStrideDst: accel.Lin(8 * int64(n)),
	}
	fft := accel.FFTArgs{
		N: int64(n), HowMany: 1, Src: 0x2000_0000, Dst: 0x2000_0000,
		LoopStrideSrc: accel.Lin(8 * int64(n)), LoopStrideDst: accel.Lin(8 * int64(n)),
	}
	return resmp.Params(), fft.Params()
}

// Figure12Chaining reproduces Figure 12a: the SAR RESMP+FFT pair for each
// image size, chained in hardware (one pass, one invocation) versus
// software (two descriptors, intermediate through DRAM).
func Figure12Chaining(sizes []int) ([]Fig12Row, error) {
	sys, err := newFig12System()
	if err != nil {
		return nil, err
	}
	// Rows are independent analytic evaluations: one chunk per size on
	// par, filling indexed slots to keep the output order.
	rows := make([]Fig12Row, len(sizes))
	err = par.Do(len(sizes), len(sizes), func(_, i int) error {
		n := sizes[i]
		resmp, fft := sarRowArgs(n)
		// Hardware chaining: LOOP n { PASS { RESMP FFT } }.
		hw := &descriptor.Descriptor{}
		if err := hw.AddLoop(uint32(n)); err != nil {
			return err
		}
		_ = hw.AddComp(descriptor.OpRESMP, resmp)
		_ = hw.AddComp(descriptor.OpFFT, fft)
		hw.AddEndPass()
		hw.AddEndLoop()
		// Software chaining: two LOOP descriptors, two invocations.
		mkSingle := func(op descriptor.OpCode, p descriptor.Params) (*descriptor.Descriptor, error) {
			d := &descriptor.Descriptor{}
			if err := d.AddLoop(uint32(n)); err != nil {
				return nil, err
			}
			if err := d.AddComp(op, p); err != nil {
				return nil, err
			}
			d.AddEndPass()
			d.AddEndLoop()
			return d, nil
		}
		sw1, err := mkSingle(descriptor.OpRESMP, resmp)
		if err != nil {
			return err
		}
		sw2, err := mkSingle(descriptor.OpFFT, fft)
		if err != nil {
			return err
		}
		// Dirty working set the flush drains: bounded by image size and LLC.
		dirty := units.Bytes(8 * n * n)
		hwT, err := sys.run(hw, dirty)
		if err != nil {
			return err
		}
		sw1T, err := sys.run(sw1, dirty)
		if err != nil {
			return err
		}
		sw2T, err := sys.run(sw2, 0) // accelerator output is not CPU-dirty
		if err != nil {
			return err
		}
		swT := sw1T + sw2T
		rows[i] = Fig12Row{
			Size: n, Software: swT, Hardware: hwT,
			SpeedupHWoverSW: float64(swT) / float64(hwT),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Figure12Loop reproduces Figure 12b: 128 FFT invocations as one hardware
// LOOP descriptor versus 128 software invocations of a single-pass
// descriptor.
func Figure12Loop(sizes []int, iterations int) ([]Fig12Row, error) {
	sys, err := newFig12System()
	if err != nil {
		return nil, err
	}
	rows := make([]Fig12Row, len(sizes))
	err = par.Do(len(sizes), len(sizes), func(_, i int) error {
		n := sizes[i]
		fft := accel.FFTArgs{
			N: int64(n), HowMany: int64(n), // one n x n image per invocation
			Src: 0x1000_0000, Dst: 0x1000_0000,
		}.Params()
		// Hardware loop: one descriptor.
		hw := &descriptor.Descriptor{}
		if err := hw.AddLoop(uint32(iterations)); err != nil {
			return err
		}
		_ = hw.AddComp(descriptor.OpFFT, fft)
		hw.AddEndPass()
		hw.AddEndLoop()
		hwT, err := sys.run(hw, units.Bytes(8*n*n))
		if err != nil {
			return err
		}
		// Software loop: the same single-pass descriptor invoked repeatedly.
		single := &descriptor.Descriptor{}
		_ = single.AddComp(descriptor.OpFFT, fft)
		single.AddEndPass()
		// The first software invocation drains the CPU-written image; the
		// remaining iterations find a clean cache (the host does not touch
		// the data between launches), so only the fixed wbinvd and
		// descriptor-copy costs recur.
		firstT, err := sys.run(single, units.Bytes(8*n*n))
		if err != nil {
			return err
		}
		restT, err := sys.run(single, 0)
		if err != nil {
			return err
		}
		swT := firstT + restT*units.Seconds(iterations-1)
		rows[i] = Fig12Row{
			Size: n, Software: swT, Hardware: hwT,
			SpeedupHWoverSW: float64(swT) / float64(hwT),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig12Sizes is the problem-size axis of Figure 12.
func Fig12Sizes() []int { return []int{256, 512, 1024, 2048, 4096, 8192} }

// RenderFigure12 produces both panels.
func RenderFigure12() (*Table, error) {
	chain, err := Figure12Chaining(Fig12Sizes())
	if err != nil {
		return nil, err
	}
	loop, err := Figure12Loop(Fig12Sizes(), 128)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 12: configuration efficiency (HW/SW time ratio)",
		Columns: []string{"Size", "chain SW", "chain HW", "chain speedup", "loop SW", "loop HW", "loop speedup"},
	}
	for i := range chain {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", chain[i].Size),
			chain[i].Software.String(), chain[i].Hardware.String(), f(chain[i].SpeedupHWoverSW),
			loop[i].Software.String(), loop[i].Hardware.String(), f(loop[i].SpeedupHWoverSW),
		})
	}
	t.Notes = append(t.Notes,
		"paper: chaining 2.5x at 256, shrinking with size; loop 9.5x at 256, shrinking with size")
	return t, nil
}
