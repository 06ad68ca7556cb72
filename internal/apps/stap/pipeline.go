package stap

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/par"
	"mealib/internal/units"
)

// Pipeline is a functional STAP run at a reduced problem size: the
// memory-bounded stages execute on the simulated accelerator layer through
// the MEALib runtime (RESHP, batched FFT, the CDOTC LOOP descriptor), and
// the compute-bounded stages (CHERK covariance, Cholesky, CTRSM solves) run
// as host library calls. It demonstrates the hybrid execution of §5.5 with
// real data flowing through the unified physical address space.
type Pipeline struct {
	Params  Params
	Runtime *mealibrt.Runtime

	datacube *mealibrt.Buffer // [NChan*NPulses][NRange] complex, channel major
	doppler  *mealibrt.Buffer // pulse-major, Doppler transformed
	weights  *mealibrt.Buffer
	prods    *mealibrt.Buffer
	scratch  *mealibrt.Buffer
}

// NewPipeline allocates the radar buffers through the MEALib memory
// management runtime.
func NewPipeline(p Params, rt *mealibrt.Runtime) (*Pipeline, error) {
	d := p.DatacubeElems()
	pl := &Pipeline{Params: p, Runtime: rt}
	var err error
	if pl.datacube, err = rt.MemAlloc(units.Bytes(8 * d)); err != nil {
		return nil, err
	}
	if pl.doppler, err = rt.MemAlloc(units.Bytes(8 * d)); err != nil {
		return nil, err
	}
	if pl.scratch, err = rt.MemAlloc(units.Bytes(8 * d)); err != nil {
		return nil, err
	}
	n := p.Dof()
	if pl.weights, err = rt.MemAlloc(units.Bytes(8 * p.NPulses * p.NBlocks * p.NSteering * n)); err != nil {
		return nil, err
	}
	if pl.prods, err = rt.MemAlloc(units.Bytes(8 * p.NPulses * p.NBlocks * p.NSteering * p.TBS)); err != nil {
		return nil, err
	}
	return pl, nil
}

// LoadDatacube fills the datacube with deterministic synthetic returns.
func (pl *Pipeline) LoadDatacube(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	d := pl.Params.DatacubeElems()
	v := make([]complex64, d)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return mealibrt.Store(pl.datacube, 0, v)
}

// DopplerProcess runs the reshape + batched Doppler FFT as one chained
// accelerator pass (the paper's plan_ct/plan_fft fusion).
func (pl *Pipeline) DopplerProcess() (*mealibrt.Invocation, error) {
	p := pl.Params
	rows := p.NChan * p.NPulses // channel-pulse plane transposed against range
	cols := p.NRange
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpRESHP, accel.ReshpArgs{
		Rows: int64(rows), Cols: int64(cols), Elem: accel.ElemC64,
		Src: pl.datacube.PA(), Dst: pl.scratch.PA(),
	}.Params()); err != nil {
		return nil, err
	}
	// After the transpose the pulses of one (range, channel) pair are
	// contiguous in groups of NPulses: batch FFT over them.
	if err := d.AddComp(descriptor.OpFFT, accel.FFTArgs{
		N: int64(p.NPulses), HowMany: int64(p.NChan * p.NRange),
		Src: pl.scratch.PA(), Dst: pl.doppler.PA(),
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	plan, err := pl.Runtime.AccPlanDescriptor(d)
	if err != nil {
		return nil, err
	}
	defer func() { _ = plan.Destroy() }()
	return plan.Execute(context.Background())
}

// SolveWeights runs the compute-bounded covariance/solve stages on the host
// (CHERK -> CPOTRF -> CTRSM x2) for every (doppler, block) pair, writing
// adaptive weights. Snapshot training data is drawn from the Doppler cube.
// The pairs are independent problems, one chunk each on par: a worker solves
// the pairs it claims with scratch of its own and writes their weights in
// place, so the weights are the same bits at any core count, and the error
// returned is the first in pair order.
func (pl *Pipeline) SolveWeights() error {
	p := pl.Params
	n := p.Dof()
	if p.TBS < n {
		return fmt.Errorf("stap: TBS %d < DOF %d: covariance would be singular", p.TBS, n)
	}
	// The snapshot walk's largest index is NPulses*NBlocks*TBS - 1 + 31(n-1):
	// it reads that prefix of the cube unless its indices wrap.
	total := p.DatacubeElems()
	cube, err := mealibrt.Load[complex64](pl.doppler, 0, min(p.NPulses*p.NBlocks*p.TBS+(n-1)*31, total))
	if err != nil {
		return err
	}
	steer := steeringVectors(p)
	weights := make([]complex64, p.NPulses*p.NBlocks*p.NSteering*n)
	pairs := p.NPulses * p.NBlocks
	width := par.Workers(pairs)
	scratch := make([][]complex64, width)
	err = par.Do(pairs, width, func(w, pair int) error {
		if scratch[w] == nil {
			scratch[w] = make([]complex64, n*p.TBS+n*n)
		}
		return solvePair(p, cube, total, steer, weights, scratch[w], pair)
	})
	if err != nil {
		return err
	}
	return mealibrt.Store(pl.weights, 0, weights)
}

// solvePair solves one (doppler, block) pair in scratch, writing each
// steering vector's weights in place in weights.
func solvePair(p Params, cube []complex64, total int, steer [][]complex64, weights, scratch []complex64, pair int) error {
	n := p.Dof()
	snap, cov := scratch[:n*p.TBS], scratch[n*p.TBS:]
	dop, blk := pair/p.NBlocks, pair%p.NBlocks
	// Assemble the n x TBS snapshot matrix from the cube.
	for i := 0; i < n; i++ {
		for t := 0; t < p.TBS; t++ {
			idx := (dop*p.NBlocks*p.TBS + blk*p.TBS + t + i*31) % total
			snap[i*p.TBS+t] = cube[idx]
		}
	}
	// Covariance: R = snap * snap^H + diag loading.
	if err := kernels.Cherk(n, p.TBS, 1, snap, p.TBS, 0, cov, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		cov[i*n+i] += complex(float32(n), 0)
	}
	if err := kernels.Cpotrf(n, cov, n); err != nil {
		return err
	}
	// Solve R w = v for every steering vector.
	for sv := 0; sv < p.NSteering; sv++ {
		off := (pair*p.NSteering + sv) * n
		w := weights[off : off+n]
		copy(w, steer[sv])
		if err := kernels.Ctrsm(kernels.Lower, kernels.NoTrans, n, 1, 1, cov, n, w, 1); err != nil {
			return err
		}
		if err := kernels.Ctrsm(kernels.Lower, kernels.ConjTrans, n, 1, 1, cov, n, w, 1); err != nil {
			return err
		}
	}
	return nil
}

// InnerProducts runs the CDOTC stage as a single 3-level LOOP descriptor
// over (doppler*block, steering, cell) — the §5.5 compaction.
func (pl *Pipeline) InnerProducts() (*mealibrt.Invocation, error) {
	p := pl.Params
	n := p.Dof()
	pairs := p.NPulses * p.NBlocks
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(uint32(pairs), uint32(p.NSteering), uint32(p.TBS)); err != nil {
		return nil, err
	}
	// x: weights, advancing per steering vector and per pair.
	// y: doppler snapshots, advancing per pair and per cell.
	// out: prods, advancing with all three levels.
	elem := int64(8)
	if err := d.AddComp(descriptor.OpDOT, accel.DotArgs{
		N: int64(n), Complex: true,
		X: pl.weights.PA(), Y: pl.doppler.PA(), Out: pl.prods.PA(),
		IncX: 1, IncY: int64(p.TBS),
		LoopStrideX:   accel.Strides{0, elem * int64(p.NSteering) * int64(n), elem * int64(n), 0},
		LoopStrideY:   accel.Strides{0, elem * int64(n) * int64(p.TBS), 0, elem},
		LoopStrideOut: accel.Strides{0, elem * int64(p.NSteering) * int64(p.TBS), elem * int64(p.TBS), elem},
	}.Params()); err != nil {
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

// Prods returns the inner-product results.
func (pl *Pipeline) Prods() ([]complex64, error) {
	p := pl.Params
	return mealibrt.Load[complex64](pl.prods, 0, p.NPulses*p.NBlocks*p.NSteering*p.TBS)
}

// Weights returns the adaptive weights.
func (pl *Pipeline) Weights() ([]complex64, error) {
	p := pl.Params
	return mealibrt.Load[complex64](pl.weights, 0, p.NPulses*p.NBlocks*p.NSteering*p.Dof())
}

// Doppler returns the Doppler-processed cube.
func (pl *Pipeline) Doppler() ([]complex64, error) {
	return mealibrt.Load[complex64](pl.doppler, 0, pl.Params.DatacubeElems())
}

// steeringVectors builds NSteering unit-modulus steering vectors.
func steeringVectors(p Params) [][]complex64 {
	n := p.Dof()
	out := make([][]complex64, p.NSteering)
	for sv := range out {
		v := make([]complex64, n)
		for i := range v {
			phase := float64(sv+1) * float64(i) * 0.1
			v[i] = complex(float32(math.Cos(phase)), float32(math.Sin(phase)))
		}
		out[sv] = v
	}
	return out
}
