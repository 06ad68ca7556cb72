package main

import (
	"math"
	"math/rand"
	"time"

	"mealib/internal/accel"
	"mealib/internal/apps/sar"
	"mealib/internal/apps/stap"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
)

// pipeline runs the paper's two applications back to back on one runtime:
// STAP (Doppler processing, host-side weight solve, inner products) on the
// small data set, then SAR image formation at 1024x1024. The STAP inner
// product LOOP has 512x8x32 = 131 072 iterations, past the plan IR's node
// limit, so it runs on the streaming executor; SAR runs as an expanded,
// fused plan. One op is one STAP plus one SAR, and one trial is one op.
type pipeline struct {
	sc   scale
	r    *rig
	stap *stap.Pipeline
	sar  *sar.Pipeline
	ref  *pipelineHost
}

// pipelineHost replays the two applications with direct kernel calls, one
// call per LOOP iteration, on host arrays.
type pipelineHost struct {
	p stap.Params
	s sar.Params

	cube, scratch, doppler, weights, prods []complex64
	raw, image                             []complex64
	dopplerFFT, imageFFT                   *kernels.FFTPlan
}

func newPipelineHost(p stap.Params, s sar.Params, cube, raw []complex64) (*pipelineHost, error) {
	d := p.DatacubeElems()
	h := &pipelineHost{p: p, s: s, cube: cube, raw: raw,
		scratch: make([]complex64, d), doppler: make([]complex64, d),
		weights: make([]complex64, p.NPulses*p.NBlocks*p.NSteering*p.Dof()),
		prods:   make([]complex64, p.NPulses*p.NBlocks*p.NSteering*p.TBS),
		image:   make([]complex64, s.Rows*s.Width)}
	var err error
	if h.dopplerFFT, err = kernels.SharedFFTPlan(p.NPulses, kernels.Forward); err != nil {
		return nil, err
	}
	h.imageFFT, err = kernels.SharedFFTPlan(s.Width, kernels.Forward)
	return h, err
}

// dopplerProcess is stap.DopplerProcess on the host: the complex transpose
// the RESHP core performs, then the batched Doppler FFT.
func (h *pipelineHost) dopplerProcess() error {
	rows, cols := h.p.NChan*h.p.NPulses, h.p.NRange
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			h.scratch[j*rows+i] = h.cube[i*cols+j]
		}
	}
	copy(h.doppler, h.scratch)
	return kernels.FFTBatch(h.dopplerFFT, h.doppler, h.p.NChan*h.p.NRange)
}

// solveWeights is stap.SolveWeights on the host arrays: the same snapshot
// assembly, CHERK, CPOTRF and two CTRSM per steering vector.
func (h *pipelineHost) solveWeights() error {
	p := h.p
	n := p.Dof()
	total := p.DatacubeElems()
	steer := make([][]complex64, p.NSteering)
	for sv := range steer {
		v := make([]complex64, n)
		for i := range v {
			phase := float64(sv+1) * float64(i) * 0.1
			v[i] = complex(float32(math.Cos(phase)), float32(math.Sin(phase)))
		}
		steer[sv] = v
	}
	snap := make([]complex64, n*p.TBS)
	cov := make([]complex64, n*n)
	for dop := 0; dop < p.NPulses; dop++ {
		for blk := 0; blk < p.NBlocks; blk++ {
			for i := 0; i < n; i++ {
				for t := 0; t < p.TBS; t++ {
					snap[i*p.TBS+t] = h.doppler[(dop*p.NBlocks*p.TBS+blk*p.TBS+t+i*31)%total]
				}
			}
			if err := kernels.Cherk(n, p.TBS, 1, snap, p.TBS, 0, cov, n); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				cov[i*n+i] += complex(float32(n), 0)
			}
			if err := kernels.Cpotrf(n, cov, n); err != nil {
				return err
			}
			for sv := 0; sv < p.NSteering; sv++ {
				off := ((dop*p.NBlocks+blk)*p.NSteering + sv) * n
				w := h.weights[off : off+n]
				copy(w, steer[sv])
				if err := kernels.Ctrsm(kernels.Lower, kernels.NoTrans, n, 1, 1, cov, n, w, 1); err != nil {
					return err
				}
				if err := kernels.Ctrsm(kernels.Lower, kernels.ConjTrans, n, 1, 1, cov, n, w, 1); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// innerProducts is stap.InnerProducts on the host: one CDOTC per iteration
// of the (pair, steering, cell) loop nest.
func (h *pipelineHost) innerProducts() error {
	p := h.p
	n := p.Dof()
	span := (n-1)*p.TBS + 1
	for pair := 0; pair < p.NPulses*p.NBlocks; pair++ {
		for sv := 0; sv < p.NSteering; sv++ {
			x := h.weights[(pair*p.NSteering+sv)*n:][:n]
			for cell := 0; cell < p.TBS; cell++ {
				y := h.doppler[pair*n*p.TBS+cell:][:span]
				v, err := kernels.Cdotc(n, x, 1, y, p.TBS)
				if err != nil {
					return err
				}
				h.prods[(pair*p.NSteering+sv)*p.TBS+cell] = v
			}
		}
	}
	return nil
}

// formImage is sar.FormImageChained on the host: resample then FFT, row by
// row.
func (h *pipelineHost) formImage() error {
	s := h.s
	for i := 0; i < s.Rows; i++ {
		row := h.image[i*s.Width : (i+1)*s.Width]
		if err := kernels.ResampleC64(h.raw[i*s.RawWidth:(i+1)*s.RawWidth], row, kernels.InterpLinear); err != nil {
			return err
		}
		if err := kernels.FFTBatch(h.imageFFT, row, 1); err != nil {
			return err
		}
	}
	return nil
}

func (w *pipeline) params() (stap.Params, sar.Params) {
	if w.sc.tiny {
		return stap.Params{Name: "tiny", NChan: 2, NPulses: 8, NRange: 64, NBlocks: 2, NSteering: 2, TDOF: 2, TBS: 8}, sar.Square(64)
	}
	return stap.Small(), sar.Square(1024)
}

func (w *pipeline) setup(seed int64) error {
	var err error
	if w.r, err = newRig(mealibrt.DefaultConfig(), seed); err != nil {
		return err
	}
	p, s := w.params()
	if w.stap, err = stap.NewPipeline(p, w.r.rt); err != nil {
		return err
	}
	if w.sar, err = sar.NewPipeline(s, w.r.rt); err != nil {
		return err
	}
	// The applications draw their inputs from the seed themselves; the host
	// replay draws the same sequences.
	if err := w.stap.LoadDatacube(seed); err != nil {
		return err
	}
	if err := w.sar.LoadRaw(seed + 1); err != nil {
		return err
	}
	cube := randC64(rand.New(rand.NewSource(seed)), p.DatacubeElems())
	raw := randC64(rand.New(rand.NewSource(seed+1)), s.Rows*s.RawWidth)
	w.ref, err = newPipelineHost(p, s, cube, raw)
	return err
}

func (w *pipeline) trial(rec *recorder, t *trialResult) error {
	t.callers, t.ops = 1, 1
	root := rec.begin("op", 0, 0)
	launch := func(name string, fn func() (*mealibrt.Invocation, error)) {
		id := rec.begin(name, root, 0)
		inv, err := fn()
		rec.end(id)
		if err != nil {
			t.fail(err)
		} else if rec != nil {
			t.acc.addInvocation(inv)
		}
	}
	start := time.Now()
	launch("stap.doppler", w.stap.DopplerProcess)
	id := rec.begin("stap.solve", root, 0)
	if err := w.stap.SolveWeights(); err != nil {
		t.fail(err)
	}
	rec.end(id)
	launch("stap.inner", w.stap.InnerProducts)
	launch("sar.form", w.sar.FormImageChained)
	t.wall = time.Since(start)
	rec.end(root)
	if t.failed > 0 {
		t.failed = 1 // the op failed, however many of its stages did
	}
	t.lat = []float64{float64(t.wall.Nanoseconds()) / 1e3}
	return nil
}

func (w *pipeline) host() error {
	h := w.ref
	for _, stage := range []func() error{h.dopplerProcess, h.solveWeights, h.innerProducts, h.formImage} {
		if err := stage(); err != nil {
			return err
		}
	}
	return nil
}

func (w *pipeline) verify() error {
	h := w.ref
	for _, c := range []struct {
		what string
		got  func() ([]complex64, error)
		want []complex64
	}{
		{"STAP doppler cube", w.stap.Doppler, h.doppler},
		{"STAP weights", w.stap.Weights, h.weights},
		{"STAP inner products", w.stap.Prods, h.prods},
		{"SAR image", w.sar.Image, h.image},
	} {
		got, err := c.got()
		if err != nil {
			return err
		}
		if err := sameC64(c.what, got, c.want); err != nil {
			return err
		}
	}
	return nil
}

func (w *pipeline) close() error { return nil }

// appDescriptors restates the three descriptors the applications build
// internally (their buffers are private), over buffers of the same shapes on
// the same runtime, each with its host code: the Doppler pass, the SAR
// chained loop, the inner-product loop nest.
func (w *pipeline) appDescriptors() ([]*shape, error) {
	p, s := w.params()
	r := w.r
	d := p.DatacubeElems()
	cube, err := r.c64(d, true)
	if err != nil {
		return nil, err
	}
	raw, err := r.c64(s.Rows*s.RawWidth, true)
	if err != nil {
		return nil, err
	}
	h, err := newPipelineHost(p, s, cube.host, raw.host)
	if err != nil {
		return nil, err
	}
	var bufs []*c64buf
	for _, n := range []int{d, d, len(h.weights), len(h.prods), len(h.image)} {
		b, err := r.c64(n, true)
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, b)
	}
	scratch, doppler, weights, prods, image := bufs[0], bufs[1], bufs[2], bufs[3], bufs[4]
	copy(h.doppler, doppler.host)
	copy(h.weights, weights.host)

	dop := &descriptor.Descriptor{}
	if err := dop.AddComp(descriptor.OpRESHP, accel.ReshpArgs{
		Rows: int64(p.NChan * p.NPulses), Cols: int64(p.NRange), Elem: accel.ElemC64,
		Src: cube.dev.PA(), Dst: scratch.dev.PA(),
	}.Params()); err != nil {
		return nil, err
	}
	if err := dop.AddComp(descriptor.OpFFT, accel.FFTArgs{
		N: int64(p.NPulses), HowMany: int64(p.NChan * p.NRange), Src: scratch.dev.PA(), Dst: doppler.dev.PA(),
	}.Params()); err != nil {
		return nil, err
	}
	dop.AddEndPass()

	form := &descriptor.Descriptor{}
	if err := form.AddLoop(uint32(s.Rows)); err != nil {
		return nil, err
	}
	if err := form.AddComp(descriptor.OpRESMP, accel.ResmpArgs{
		NIn: int64(s.RawWidth), NOut: int64(s.Width), Kind: accel.ResmpComplex,
		Src: raw.dev.PA(), Dst: image.dev.PA(),
		LoopStrideSrc: accel.Lin(int64(8 * s.RawWidth)), LoopStrideDst: accel.Lin(int64(8 * s.Width)),
	}.Params()); err != nil {
		return nil, err
	}
	if err := form.AddComp(descriptor.OpFFT, accel.FFTArgs{
		N: int64(s.Width), HowMany: 1, Src: image.dev.PA(), Dst: image.dev.PA(),
		LoopStrideSrc: accel.Lin(int64(8 * s.Width)), LoopStrideDst: accel.Lin(int64(8 * s.Width)),
	}.Params()); err != nil {
		return nil, err
	}
	form.AddEndPass()
	form.AddEndLoop()

	n, elem := int64(p.Dof()), int64(8)
	inner := &descriptor.Descriptor{}
	if err := inner.AddLoop(uint32(p.NPulses*p.NBlocks), uint32(p.NSteering), uint32(p.TBS)); err != nil {
		return nil, err
	}
	if err := inner.AddComp(descriptor.OpDOT, accel.DotArgs{
		N: n, Complex: true, X: weights.dev.PA(), Y: doppler.dev.PA(), Out: prods.dev.PA(),
		IncX: 1, IncY: int64(p.TBS),
		LoopStrideX:   accel.Strides{0, elem * int64(p.NSteering) * n, elem * n, 0},
		LoopStrideY:   accel.Strides{0, elem * n * int64(p.TBS), 0, elem},
		LoopStrideOut: accel.Strides{0, elem * int64(p.NSteering) * int64(p.TBS), elem * int64(p.TBS), elem},
	}.Params()); err != nil {
		return nil, err
	}
	inner.AddEndPass()
	inner.AddEndLoop()

	shapes := []*shape{
		{name: "stap.doppler", desc: dop, host: h.dopplerProcess},
		{name: "sar.form", desc: form, host: h.formImage},
		{name: "stap.inner", desc: inner, host: h.innerProducts},
	}
	for _, sh := range shapes {
		if err := r.install(sh); err != nil {
			return nil, err
		}
	}
	return shapes, nil
}

func (w *pipeline) layers(rec *recorder, m metrics, t *trialResult, untracedUS float64) error {
	self := rec.selfMicros()
	m["stap.doppler_us"] = self["stap.doppler"]
	m["stap.solve_us"] = self["stap.solve"]
	m["stap.inner_us"] = self["stap.inner"]
	m["sar.form_us"] = self["sar.form"]

	shapes, err := w.appDescriptors()
	if err != nil {
		return err
	}
	// An op is one launch of each of the three, so each weighs 1: the layer
	// metrics are per op, as everywhere.
	var mix []probed
	var plans []*mealibrt.Plan
	var order []int
	for i, s := range shapes {
		mix = append(mix, probed{name: s.name, desc: s.desc, host: s.host, weight: 1, reps: 1})
		plans = append(plans, s.plan)
		order = append(order, i)
	}
	if err := w.r.probeLayers(rec, m, mix); err != nil {
		return err
	}
	// The applications install a plan per call, so install cost is on the
	// op's path; the SAR descriptor stands for it.
	if err := w.r.probeRuntime(rec, m, shapes[1].desc, plans, order, 1, 3); err != nil {
		return err
	}
	attribute(m, untracedUS, m["mealibrt.execute_us"])
	return paperError(m, false)
}
