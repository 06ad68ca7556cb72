package main

import (
	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/exp"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

// loopKernels is the kernel-bound workload: the eight looped shapes of
// internal/exp/micro.go restated as installed plans on a runtime with a
// 512 KiB staging region, plus OOC, an AXPY over host-backed vectors that
// runs chunked through the staging region. One caller launches the nine
// round-robin. A launch is hundreds of microseconds of kernel work, so the
// runtime's fixed cost is a few percent and what moves the workload is the
// kernels, the accelerator layer's per-iteration cost, the wavefront
// scheduler and fusion.
//
// Two shapes differ from micro.go so that repeated launches stay finite and
// the data the kernels see does not change from trial to trial: FFT writes
// to a separate destination instead of transforming in place (an in-place
// FFT launched thousands of times overflows float32), and the rest are
// idempotent as they stand. AXPY and OOC accumulate, linearly.
type loopKernels struct {
	sc     scale
	r      *rig
	shapes []*shape
	plans  []*mealibrt.Plan
	order  []int
	ops    int
}

const (
	loopStaging = 512 * units.KiB
	oocElems    = 1 << 20
)

func loopShapes(r *rig) ([]*shape, error) {
	alloc := r.rt.MemAlloc
	var out []*shape
	add := func(name string, d *descriptor.Descriptor, err error, host, check func() error) error {
		if err != nil {
			return err
		}
		s := &shape{name: name, desc: d, host: host, check: check}
		out = append(out, s)
		return r.install(s)
	}
	// bufs allocates several float32 buffers; a false fill leaves zeros.
	bufs := func(alloc func(units.Bytes) (*mealibrt.Buffer, error), sizes []int, fill []bool) ([]*f32buf, error) {
		var bs []*f32buf
		for i, n := range sizes {
			b, err := r.f32(alloc, n, fill[i])
			if err != nil {
				return nil, err
			}
			bs = append(bs, b)
		}
		return bs, nil
	}

	{
		const n, iters = 4096, 64
		b, err := bufs(alloc, []int{n * iters, n * iters}, []bool{true, true})
		if err != nil {
			return nil, err
		}
		x, y := b[0], b[1]
		d, err := looped(iters, descriptor.OpAXPY, accel.AxpyArgs{
			N: n, Alpha: 0.5, X: x.dev.PA(), Y: y.dev.PA(), IncX: 1, IncY: 1,
			LoopStrideX: accel.Lin(4 * n), LoopStrideY: accel.Lin(4 * n),
		}.Params())
		if err := add("AXPY", d, err, func() error {
			for i := 0; i < iters; i++ {
				if err := kernels.Saxpy(n, 0.5, x.host[i*n:(i+1)*n], 1, y.host[i*n:(i+1)*n], 1); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return y.check("AXPY y") }); err != nil {
			return nil, err
		}
	}
	{
		const n, iters = 4096, 64
		b, err := bufs(alloc, []int{n * iters, n, iters}, []bool{true, true, false})
		if err != nil {
			return nil, err
		}
		x, y, o := b[0], b[1], b[2]
		d, err := looped(iters, descriptor.OpDOT, accel.DotArgs{
			N: n, X: x.dev.PA(), Y: y.dev.PA(), Out: o.dev.PA(), IncX: 1, IncY: 1,
			LoopStrideX: accel.Lin(4 * n), LoopStrideOut: accel.Lin(4),
		}.Params())
		if err := add("DOT", d, err, func() error {
			for i := 0; i < iters; i++ {
				v, err := kernels.Sdot(n, x.host[i*n:(i+1)*n], 1, y.host, 1)
				if err != nil {
					return err
				}
				o.host[i] = v
			}
			return nil
		}, func() error { return o.check("DOT out") }); err != nil {
			return nil, err
		}
	}
	{
		const m, n, iters = 128, 128, 32
		b, err := bufs(alloc, []int{m * n * iters, n, m * iters}, []bool{true, true, false})
		if err != nil {
			return nil, err
		}
		a, x, y := b[0], b[1], b[2]
		d, err := looped(iters, descriptor.OpGEMV, accel.GemvArgs{
			M: m, N: n, Alpha: 1, Beta: 0, A: a.dev.PA(), Lda: n, X: x.dev.PA(), Y: y.dev.PA(),
			LoopStrideA: accel.Lin(4 * m * n), LoopStrideY: accel.Lin(4 * m),
		}.Params())
		if err := add("GEMV", d, err, func() error {
			for i := 0; i < iters; i++ {
				if err := kernels.Sgemv(m, n, 1, a.host[i*m*n:(i+1)*m*n], n, x.host, 0, y.host[i*m:(i+1)*m]); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return y.check("GEMV y") }); err != nil {
			return nil, err
		}
	}
	{
		const rows, perRow, iters = 4096, 4, 8
		nnz := rows * perRow
		rowPtr := make([]int32, rows+1)
		colIdx := make([]int32, nnz)
		for i := 0; i < rows; i++ {
			for j := 0; j < perRow; j++ {
				colIdx[i*perRow+j] = int32((i*perRow + j*997) % rows)
			}
			rowPtr[i+1] = int32((i + 1) * perRow)
		}
		rp, err := r.i32(rowPtr)
		if err != nil {
			return nil, err
		}
		ci, err := r.i32(colIdx)
		if err != nil {
			return nil, err
		}
		b, err := bufs(alloc, []int{nnz, rows, rows}, []bool{true, true, false})
		if err != nil {
			return nil, err
		}
		v, x, y := b[0], b[1], b[2]
		// No loop strides: every iteration touches the same spans, so this
		// shape takes the scheduler's serial chain.
		d, err := looped(iters, descriptor.OpSPMV, accel.SpmvArgs{
			M: rows, Cols: rows, NNZ: int64(nnz),
			RowPtr: rp.PA(), ColIdx: ci.PA(), Values: v.dev.PA(), X: x.dev.PA(), Y: y.dev.PA(),
		}.Params())
		if err := add("SPMV", d, err, func() error {
			for i := 0; i < iters; i++ {
				if err := kernels.SpmvCSR(rows, rowPtr, colIdx, v.host, x.host, y.host); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return y.check("SPMV y") }); err != nil {
			return nil, err
		}
	}
	{
		const nin, nout, iters = 4096, 8192, 32
		b, err := bufs(alloc, []int{nin * iters, nout * iters}, []bool{true, false})
		if err != nil {
			return nil, err
		}
		src, dst := b[0], b[1]
		d, err := looped(iters, descriptor.OpRESMP, accel.ResmpArgs{
			NIn: nin, NOut: nout, Kind: int64(kernels.InterpCubic), Src: src.dev.PA(), Dst: dst.dev.PA(),
			LoopStrideSrc: accel.Lin(4 * nin), LoopStrideDst: accel.Lin(4 * nout),
		}.Params())
		if err := add("RESMP", d, err, func() error {
			for i := 0; i < iters; i++ {
				if err := kernels.Resample(src.host[i*nin:(i+1)*nin], dst.host[i*nout:(i+1)*nout], kernels.InterpCubic); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return dst.check("RESMP dst") }); err != nil {
			return nil, err
		}
	}
	{
		const n, batch, iters = 1024, 4, 32
		src, err := r.c64(n*batch*iters, true)
		if err != nil {
			return nil, err
		}
		dst, err := r.c64(n*batch*iters, false)
		if err != nil {
			return nil, err
		}
		d, err := looped(iters, descriptor.OpFFT, accel.FFTArgs{
			N: n, HowMany: batch, Src: src.dev.PA(), Dst: dst.dev.PA(),
			LoopStrideSrc: accel.Lin(8 * n * batch), LoopStrideDst: accel.Lin(8 * n * batch),
		}.Params())
		plan, perr := kernels.NewFFTPlan(n, kernels.Forward)
		if perr != nil {
			return nil, perr
		}
		if err := add("FFT", d, err, func() error {
			for i := 0; i < iters; i++ {
				blk := dst.host[i*n*batch : (i+1)*n*batch]
				copy(blk, src.host[i*n*batch:(i+1)*n*batch])
				if err := kernels.FFTBatch(plan, blk, batch); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return dst.check("FFT dst") }); err != nil {
			return nil, err
		}
	}
	{
		// RESMP feeding FFT over disjoint rows, written as two passes the
		// fusion pass merges into one chained pass (the SAR shape).
		const nin, n, iters = 768, 1024, 32
		raw, err := r.c64(nin*iters, true)
		if err != nil {
			return nil, err
		}
		img, err := r.c64(n*iters, false)
		if err != nil {
			return nil, err
		}
		d := &descriptor.Descriptor{}
		err = d.AddLoop(iters)
		if err == nil {
			err = d.AddComp(descriptor.OpRESMP, accel.ResmpArgs{
				NIn: nin, NOut: n, Kind: accel.ResmpComplex + int64(kernels.InterpLinear),
				Src: raw.dev.PA(), Dst: img.dev.PA(),
				LoopStrideSrc: accel.Lin(8 * nin), LoopStrideDst: accel.Lin(8 * n),
			}.Params())
		}
		d.AddEndPass()
		if err == nil {
			err = d.AddComp(descriptor.OpFFT, accel.FFTArgs{
				N: n, HowMany: 1, Src: img.dev.PA(), Dst: img.dev.PA(),
				LoopStrideSrc: accel.Lin(8 * n), LoopStrideDst: accel.Lin(8 * n),
			}.Params())
		}
		d.AddEndPass()
		d.AddEndLoop()
		plan, perr := kernels.NewFFTPlan(n, kernels.Forward)
		if perr != nil {
			return nil, perr
		}
		if err := add("CHAIN", d, err, func() error {
			for i := 0; i < iters; i++ {
				row := img.host[i*n : (i+1)*n]
				if err := kernels.ResampleC64(raw.host[i*nin:(i+1)*nin], row, kernels.InterpLinear); err != nil {
					return err
				}
				if err := kernels.FFTBatch(plan, row, 1); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return img.check("CHAIN image") }); err != nil {
			return nil, err
		}
	}
	{
		const edge, iters = 256, 4
		b, err := bufs(alloc, []int{edge * edge, edge * edge}, []bool{true, false})
		if err != nil {
			return nil, err
		}
		src, dst := b[0], b[1]
		d, err := looped(iters, descriptor.OpRESHP, accel.ReshpArgs{
			Rows: edge, Cols: edge, Elem: accel.ElemF32, Src: src.dev.PA(), Dst: dst.dev.PA(),
		}.Params())
		if err := add("RESHP", d, err, func() error {
			for i := 0; i < iters; i++ {
				if err := kernels.Transpose(edge, edge, src.host, dst.host); err != nil {
					return err
				}
			}
			return nil
		}, func() error { return dst.check("RESHP dst") }); err != nil {
			return nil, err
		}
	}
	{
		b, err := bufs(r.rt.MemAllocHost, []int{oocElems, oocElems}, []bool{true, true})
		if err != nil {
			return nil, err
		}
		x, y := b[0], b[1]
		d, err := onePass(descriptor.OpAXPY, accel.AxpyArgs{
			N: oocElems, Alpha: 0.25, X: x.dev.PA(), Y: y.dev.PA(), IncX: 1, IncY: 1,
		}.Params())
		if err := add("OOC", d, err,
			func() error { return kernels.Saxpy(oocElems, 0.25, x.host, 1, y.host, 1) },
			func() error { return y.check("OOC y") }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (w *loopKernels) setup(seed int64) error {
	cfg := mealibrt.DefaultConfig()
	cfg.Driver.StagingSize = loopStaging
	var err error
	if w.r, err = newRig(cfg, seed); err != nil {
		return err
	}
	if w.shapes, err = loopShapes(w.r); err != nil {
		return err
	}
	for i, s := range w.shapes {
		w.plans = append(w.plans, s.plan)
		w.order = append(w.order, i)
	}
	w.ops = len(w.shapes) * 10 // about 0.1 s of engine and as much of host replay
	if w.sc.tiny {
		w.ops = len(w.shapes)
	}
	return nil
}

func (w *loopKernels) trial(rec *recorder, t *trialResult) error {
	runOps(w.plans, w.order, w.ops, rec, t)
	return nil
}

func (w *loopKernels) host() error   { return replay(w.shapes, w.order, w.ops) }
func (w *loopKernels) verify() error { return checkAll(w.shapes) }
func (w *loopKernels) close() error  { return nil }

func (w *loopKernels) layers(rec *recorder, m metrics, t *trialResult, untracedUS float64) error {
	reps := 10
	if w.sc.tiny {
		reps = 1
	}
	var mix []probed
	for _, s := range w.shapes {
		mix = append(mix, probed{name: s.name, desc: s.desc, host: s.host, weight: 1 / float64(len(w.shapes)), reps: reps})
	}
	if err := w.r.probeLayers(rec, m, mix); err != nil {
		return err
	}
	// Per shape: the launch through the runtime against its host code.
	for _, s := range w.shapes {
		s := s
		engine, err := usPer(reps, func() error { _, err := s.plan.Execute(ctx); return err })
		if err != nil {
			return err
		}
		host, err := usPer(reps, s.host)
		if err != nil {
			return err
		}
		m["loop."+s.name+"_us"] = engine
		m["loop."+s.name+"_host_ratio"] = host / engine
	}
	if err := w.r.probeRuntime(rec, m, w.shapes[0].desc, w.plans, w.order, reps, 1); err != nil {
		return err
	}
	attribute(m, untracedUS, m["mealibrt.execute_us"])
	return paperError(m, true)
}

// paperError sets paper_err_pct: the mean absolute relative error, in
// percent, of the gains this reproduction's model yields against the values
// the paper prints and the repository carries. Figures 9 and 10 (per-op
// performance and energy gains) for the kernel workload, Figure 13 (STAP
// performance and EDP gains) for the pipeline.
func paperError(m metrics, kernelFigures bool) error {
	var errs []float64
	rel := func(got, paper float64) {
		if paper != 0 {
			d := (got - paper) / paper
			if d < 0 {
				d = -d
			}
			errs = append(errs, 100*d)
		}
	}
	if kernelFigures {
		for _, fig := range []func() ([]exp.Fig9Row, error){exp.Figure9, exp.Figure10} {
			rows, err := fig()
			if err != nil {
				return err
			}
			for _, r := range rows {
				rel(r.MEALib, r.PaperMEALib)
			}
		}
	} else {
		rows, err := exp.Figure13()
		if err != nil {
			return err
		}
		for _, r := range rows {
			rel(r.PerfGain, r.PaperPerf)
			rel(r.EDPGain, r.PaperEDP)
		}
	}
	m["paper_err_pct"] = mean(errs)
	return nil
}
