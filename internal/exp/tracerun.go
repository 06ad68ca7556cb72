package exp

import (
	"context"
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/apps/sar"
	"mealib/internal/apps/stap"
	"mealib/internal/descriptor"
	"mealib/internal/dram"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/trace"
	"mealib/internal/units"
)

// This file hosts the traced workload runners behind cmd/mealib-trace: each
// drives a representative workload through a tracer-equipped runtime so the
// resulting Chrome trace shows the full stack — app stages, runtime
// admission/flights, accelerator waves and nodes, host library calls, and a
// DRAM replay of the workload's streaming footprint.

// tracedRuntime builds a default runtime with the tracer installed.
func tracedRuntime(tr *telemetry.Tracer) (*mealibrt.Runtime, error) {
	cfg := mealibrt.DefaultConfig()
	cfg.Tracer = tr
	return mealibrt.New(cfg)
}

// replayDRAM replays the workload's streaming footprint (read the inputs,
// write the outputs) through the cycle-level DRAM simulator attached to the
// tracer, giving the trace its dram track. The functional runtime moves real
// bytes through the physical space; this pass recreates that traffic as
// open-page requests against the HMC-style 3D stack the paper models.
func replayDRAM(tr *telemetry.Tracer, read, written units.Bytes) (dram.Stats, error) {
	sim, err := dram.NewSimulator(dram.HMC3D())
	if err != nil {
		return dram.Stats{}, err
	}
	sim.SetTracer(tr)
	t := trace.Interleave(
		trace.Stream(0, read, 0, false),
		trace.Stream(phys.Addr(read), written, 0, true),
	)
	return sim.Run(t), nil
}

// microTracePlan builds one LOOP{iters} micro descriptor over fresh
// initialized buffers and returns its installed plan plus the buffer
// footprint it touches.
func microTracePlan(rt *mealibrt.Runtime, op string) (*mealibrt.Plan, units.Bytes, error) {
	const n, iters = 4096, 64
	alloc := func(bytes int64, cplx bool) (*mealibrt.Buffer, error) {
		b, err := rt.MemAlloc(units.Bytes(bytes))
		if err != nil {
			return nil, err
		}
		if cplx {
			v := make([]complex64, bytes/8)
			for i := range v {
				v[i] = complex(float32(i%17)*0.25, float32(i%5)*0.5)
			}
			return b, mealibrt.Store(b, 0, v)
		}
		v := make([]float32, bytes/4)
		for i := range v {
			v[i] = float32(i%13) * 0.5
		}
		return b, mealibrt.Store(b, 0, v)
	}
	d := &descriptor.Descriptor{}
	var footprint units.Bytes
	switch op {
	case "AXPY":
		x, err := alloc(4*n*iters, false)
		if err != nil {
			return nil, 0, err
		}
		y, err := alloc(4*n*iters, false)
		if err != nil {
			return nil, 0, err
		}
		footprint = 2 * 4 * n * iters
		if err := d.AddLoop(iters); err != nil {
			return nil, 0, err
		}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: n, Alpha: 0.5, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
			LoopStrideX: accel.Lin(4 * n), LoopStrideY: accel.Lin(4 * n),
		}.Params()); err != nil {
			return nil, 0, err
		}
	case "DOT":
		x, err := alloc(4*n*iters, false)
		if err != nil {
			return nil, 0, err
		}
		y, err := alloc(4*n*iters, false)
		if err != nil {
			return nil, 0, err
		}
		out, err := rt.MemAlloc(4 * iters)
		if err != nil {
			return nil, 0, err
		}
		footprint = 2 * 4 * n * iters
		if err := d.AddLoop(iters); err != nil {
			return nil, 0, err
		}
		if err := d.AddComp(descriptor.OpDOT, accel.DotArgs{
			N: n, X: x.PA(), Y: y.PA(), Out: out.PA(), IncX: 1, IncY: 1,
			LoopStrideX: accel.Lin(4 * n), LoopStrideY: accel.Lin(4 * n),
			LoopStrideOut: accel.Lin(4),
		}.Params()); err != nil {
			return nil, 0, err
		}
	case "FFT":
		const fftN = 1024
		src, err := alloc(8*fftN*iters, true)
		if err != nil {
			return nil, 0, err
		}
		dst, err := rt.MemAlloc(8 * fftN * iters)
		if err != nil {
			return nil, 0, err
		}
		footprint = 2 * 8 * fftN * iters
		if err := d.AddLoop(iters); err != nil {
			return nil, 0, err
		}
		if err := d.AddComp(descriptor.OpFFT, accel.FFTArgs{
			N: fftN, HowMany: 1, Src: src.PA(), Dst: dst.PA(),
			LoopStrideSrc: accel.Lin(8 * fftN), LoopStrideDst: accel.Lin(8 * fftN),
		}.Params()); err != nil {
			return nil, 0, err
		}
	default:
		return nil, 0, fmt.Errorf("exp: unknown traced micro op %q (want AXPY, DOT, or FFT)", op)
	}
	d.AddEndPass()
	d.AddEndLoop()
	p, err := rt.AccPlanDescriptor(d)
	if err != nil {
		return nil, 0, err
	}
	return p, footprint, nil
}

// TraceMicro runs one micro op through a traced runtime: two disjoint LOOP
// launches in flight together, then a conflicting resubmission that has to
// stall in admission — so the trace exercises overlap, admission, and the
// wavefront scheduler — followed by a DRAM replay of the footprint.
func TraceMicro(tr *telemetry.Tracer, op string) error {
	rt, err := tracedRuntime(tr)
	if err != nil {
		return err
	}
	ab := tr.Buffer(telemetry.TrackApp)
	defer ab.Release()
	ab.Begin(telemetry.SpanStage, "micro:"+op)

	pa, bytesA, err := microTracePlan(rt, op)
	if err != nil {
		return err
	}
	pb, bytesB, err := microTracePlan(rt, op)
	if err != nil {
		return err
	}
	// Accepting all three launches before any starts fixes their order: pa
	// and pb are disjoint and admitted at once, and the resubmission of pa
	// conflicts with pa's first launch, so it queues behind it and its Start
	// stalls in admission until that flight retires.
	var ls [3]*mealibrt.Launch
	for i, p := range []*mealibrt.Plan{pa, pb, pa} {
		if ls[i], err = p.Accept(); err != nil {
			return err
		}
	}
	for _, l := range ls {
		if _, err := l.Start(context.Background()); err != nil {
			return err
		}
	}
	var total units.Seconds
	for _, f := range ls {
		inv, err := f.Wait(context.Background())
		if err != nil {
			return err
		}
		total += inv.TotalTime()
	}
	tr.Metrics().Counter("app.launches").Add(3)
	ab.End(telemetry.SpanStage, total)

	_, err = replayDRAM(tr, bytesA+bytesB, (bytesA+bytesB)/2)
	return err
}

// TraceSTAP runs the hybrid STAP pipeline under the tracer: the Doppler and
// inner-product stages go through the accelerator runtime, the
// covariance/solve stage runs as host library calls on the host track, and
// the datacube footprint is replayed through the DRAM simulator.
func TraceSTAP(tr *telemetry.Tracer, p stap.Params) error {
	rt, err := tracedRuntime(tr)
	if err != nil {
		return err
	}
	pl, err := stap.NewPipeline(p, rt)
	if err != nil {
		return err
	}
	ab := tr.Buffer(telemetry.TrackApp)
	defer ab.Release()
	ab.Begin(telemetry.SpanStage, "stap")
	if err := pl.LoadDatacube(1); err != nil {
		return err
	}

	ab.Begin(telemetry.SpanStage, "doppler")
	inv1, err := pl.DopplerProcess()
	if err != nil {
		return err
	}
	ab.End(telemetry.SpanStage, inv1.TotalTime())

	hb := tr.Buffer(telemetry.TrackHost)
	hb.Begin(telemetry.SpanHost, "solve_weights")
	err = pl.SolveWeights()
	hb.End(telemetry.SpanHost, 0)
	hb.Release()
	if err != nil {
		return err
	}

	ab.Begin(telemetry.SpanStage, "inner_products")
	inv2, err := pl.InnerProducts()
	if err != nil {
		return err
	}
	ab.End(telemetry.SpanStage, inv2.TotalTime())

	tr.Metrics().Counter("app.stages").Add(3)
	cube := units.Bytes(8 * p.DatacubeElems())
	if _, err := replayDRAM(tr, cube, cube); err != nil {
		return err
	}
	ab.End(telemetry.SpanStage, inv1.TotalTime()+inv2.TotalTime())
	return nil
}

// TraceSAR runs SAR image formation both hardware-chained (one descriptor)
// and software-chained (two descriptors, intermediate through DRAM) under
// the tracer, so the two invocation shapes can be compared side by side in
// the same trace.
func TraceSAR(tr *telemetry.Tracer, n int) error {
	rt, err := tracedRuntime(tr)
	if err != nil {
		return err
	}
	p := sar.Square(n)
	pl, err := sar.NewPipeline(p, rt)
	if err != nil {
		return err
	}
	ab := tr.Buffer(telemetry.TrackApp)
	defer ab.Release()
	ab.Begin(telemetry.SpanStage, "sar")
	if err := pl.LoadRaw(1); err != nil {
		return err
	}

	ab.Begin(telemetry.SpanStage, "chained")
	chained, err := pl.FormImageChained()
	if err != nil {
		return err
	}
	ab.End(telemetry.SpanStage, chained.TotalTime())

	ab.Begin(telemetry.SpanStage, "separate")
	first, second, err := pl.FormImageSeparate()
	if err != nil {
		return err
	}
	ab.End(telemetry.SpanStage, first.TotalTime()+second.TotalTime())

	tr.Metrics().Counter("app.stages").Add(2)
	footprint := units.Bytes(8 * p.Rows * (p.RawWidth + p.Width))
	if _, err := replayDRAM(tr, footprint, footprint/2); err != nil {
		return err
	}
	ab.End(telemetry.SpanStage, chained.TotalTime()+first.TotalTime()+second.TotalTime())
	return nil
}
