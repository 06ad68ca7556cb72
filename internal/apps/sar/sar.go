// Package sar implements the Synthetic Aperture Radar image-formation
// kernel the paper uses to evaluate hardware accelerator chaining (§5.4,
// Figure 12a): every image row is range-interpolated (RESMP) and then
// Fourier transformed (FFT). With hardware chaining both accelerators sit
// in one PASS of a single LOOP descriptor and the intermediate row flows
// through tile-local memory; with software chaining the two stages are
// separate descriptor invocations whose intermediate round-trips through
// DRAM — and the host pays the flush/copy invocation cost twice.
package sar

import (
	"context"
	"fmt"
	"math/rand"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

// Params sizes the image.
type Params struct {
	// Rows x Width output image; raw data has RawWidth samples per row.
	Rows, Width, RawWidth int
}

// Square returns the n x n configuration of Figure 12a (raw rows carry
// 25% more samples than the output grid).
func Square(n int) Params {
	return Params{Rows: n, Width: n, RawWidth: n + n/4}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.Rows <= 0 || p.Width <= 1 || p.RawWidth < 2 {
		return fmt.Errorf("sar: bad parameters %+v", p)
	}
	return nil
}

// Pipeline owns the image buffers.
type Pipeline struct {
	Params  Params
	Runtime *mealibrt.Runtime

	raw   *mealibrt.Buffer // Rows x RawWidth complex
	image *mealibrt.Buffer // Rows x Width complex
}

// NewPipeline allocates buffers through the MEALib runtime.
func NewPipeline(p Params, rt *mealibrt.Runtime) (*Pipeline, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	pl := &Pipeline{Params: p, Runtime: rt}
	var err error
	if pl.raw, err = rt.MemAlloc(units.Bytes(8 * p.Rows * p.RawWidth)); err != nil {
		return nil, err
	}
	if pl.image, err = rt.MemAlloc(units.Bytes(8 * p.Rows * p.Width)); err != nil {
		return nil, err
	}
	return pl, nil
}

// LoadRaw fills the raw data deterministically.
func (pl *Pipeline) LoadRaw(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex64, pl.Params.Rows*pl.Params.RawWidth)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return mealibrt.Store(pl.raw, 0, v)
}

// rowArgs builds the per-row RESMP and FFT argument blocks with loop
// strides advancing one row per iteration.
func (pl *Pipeline) rowArgs() (accel.ResmpArgs, accel.FFTArgs) {
	p := pl.Params
	resmp := accel.ResmpArgs{
		NIn: int64(p.RawWidth), NOut: int64(p.Width),
		Kind: accel.ResmpComplex, // complex linear interpolation
		Src:  pl.raw.PA(), Dst: pl.image.PA(),
		LoopStrideSrc: accel.Lin(int64(8 * p.RawWidth)),
		LoopStrideDst: accel.Lin(int64(8 * p.Width)),
	}
	fft := accel.FFTArgs{
		N: int64(p.Width), HowMany: 1,
		Src: pl.image.PA(), Dst: pl.image.PA(),
		LoopStrideSrc: accel.Lin(int64(8 * p.Width)),
		LoopStrideDst: accel.Lin(int64(8 * p.Width)),
	}
	return resmp, fft
}

// FormImageChained runs both stages as one chained pass per row inside a
// single LOOP descriptor (hardware chaining: one invocation).
func (pl *Pipeline) FormImageChained() (*mealibrt.Invocation, error) {
	resmp, fft := pl.rowArgs()
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(uint32(pl.Params.Rows)); err != nil {
		return nil, err
	}
	if err := d.AddComp(descriptor.OpRESMP, resmp.Params()); err != nil {
		return nil, err
	}
	if err := d.AddComp(descriptor.OpFFT, fft.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	d.AddEndLoop()
	plan, err := pl.Runtime.AccPlanDescriptor(d)
	if err != nil {
		return nil, err
	}
	defer func() { _ = plan.Destroy() }()
	return plan.Execute(context.Background())
}

// FormImageSeparate runs the two stages as separate descriptor invocations
// (software chaining: two invocations, intermediate through DRAM).
func (pl *Pipeline) FormImageSeparate() (first, second *mealibrt.Invocation, err error) {
	resmp, fft := pl.rowArgs()
	mk := func(op descriptor.OpCode, params descriptor.Params) (*mealibrt.Invocation, error) {
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(uint32(pl.Params.Rows)); err != nil {
			return nil, err
		}
		if err := d.AddComp(op, params); err != nil {
			return nil, err
		}
		d.AddEndPass()
		d.AddEndLoop()
		plan, err := pl.Runtime.AccPlanDescriptor(d)
		if err != nil {
			return nil, err
		}
		defer func() { _ = plan.Destroy() }()
		return plan.Execute(context.Background())
	}
	if first, err = mk(descriptor.OpRESMP, resmp.Params()); err != nil {
		return nil, nil, err
	}
	if second, err = mk(descriptor.OpFFT, fft.Params()); err != nil {
		return nil, nil, err
	}
	return first, second, nil
}

// Image returns the formed image.
func (pl *Pipeline) Image() ([]complex64, error) {
	return mealibrt.Load[complex64](pl.image, 0, pl.Params.Rows*pl.Params.Width)
}
