package main

import (
	"math/rand"
	"runtime"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/telemetry"
)

// launchSmall is the fixed-cost workload: four tiny installed plans over
// disjoint buffers, launched one at a time by one caller in a seed-shuffled
// rotation. The kernels take well under a microsecond, so an op is almost
// all runtime, verifier, decode and plan lowering.
type launchSmall struct {
	sc     scale
	r      *rig
	shapes []*shape
	plans  []*mealibrt.Plan
	order  []int
	ops    int // per trial
}

// smallShapes builds the four single-pass descriptors on r: AXPY n=256, DOT
// n=256, GEMV 16x16, RESHP 16x16.
func smallShapes(r *rig) ([]*shape, error) {
	const n, edge = 256, 16
	alloc := r.rt.MemAlloc
	var out []*shape
	add := func(name string, op descriptor.OpCode, p descriptor.Params, host, check func() error) error {
		d, err := onePass(op, p)
		if err != nil {
			return err
		}
		s := &shape{name: name, desc: d, host: host, check: check}
		out = append(out, s)
		return r.install(s)
	}

	ax, err := r.f32(alloc, n, true)
	if err != nil {
		return nil, err
	}
	ay, err := r.f32(alloc, n, true)
	if err != nil {
		return nil, err
	}
	if err := add("AXPY", descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 0.5, X: ax.dev.PA(), Y: ay.dev.PA(), IncX: 1, IncY: 1,
	}.Params(),
		func() error { return kernels.Saxpy(n, 0.5, ax.host, 1, ay.host, 1) },
		func() error { return ay.check("AXPY y") }); err != nil {
		return nil, err
	}

	dx, err := r.f32(alloc, n, true)
	if err != nil {
		return nil, err
	}
	dy, err := r.f32(alloc, n, true)
	if err != nil {
		return nil, err
	}
	dout, err := r.f32(alloc, 1, false)
	if err != nil {
		return nil, err
	}
	if err := add("DOT", descriptor.OpDOT, accel.DotArgs{
		N: n, X: dx.dev.PA(), Y: dy.dev.PA(), Out: dout.dev.PA(), IncX: 1, IncY: 1,
	}.Params(),
		func() error {
			v, err := kernels.Sdot(n, dx.host, 1, dy.host, 1)
			dout.host[0] = v
			return err
		},
		func() error { return dout.check("DOT out") }); err != nil {
		return nil, err
	}

	ga, err := r.f32(alloc, edge*edge, true)
	if err != nil {
		return nil, err
	}
	gx, err := r.f32(alloc, edge, true)
	if err != nil {
		return nil, err
	}
	gy, err := r.f32(alloc, edge, false)
	if err != nil {
		return nil, err
	}
	if err := add("GEMV", descriptor.OpGEMV, accel.GemvArgs{
		M: edge, N: edge, Alpha: 1, Beta: 0, A: ga.dev.PA(), Lda: edge, X: gx.dev.PA(), Y: gy.dev.PA(),
	}.Params(),
		func() error { return kernels.Sgemv(edge, edge, 1, ga.host, edge, gx.host, 0, gy.host) },
		func() error { return gy.check("GEMV y") }); err != nil {
		return nil, err
	}

	rs, err := r.f32(alloc, edge*edge, true)
	if err != nil {
		return nil, err
	}
	rd, err := r.f32(alloc, edge*edge, false)
	if err != nil {
		return nil, err
	}
	if err := add("RESHP", descriptor.OpRESHP, accel.ReshpArgs{
		Rows: edge, Cols: edge, Elem: accel.ElemF32, Src: rs.dev.PA(), Dst: rd.dev.PA(),
	}.Params(),
		func() error { return kernels.Transpose(edge, edge, rs.host, rd.host) },
		func() error { return rd.check("RESHP dst") }); err != nil {
		return nil, err
	}
	return out, nil
}

func (w *launchSmall) setup(seed int64) error {
	var err error
	if w.r, err = newRig(mealibrt.DefaultConfig(), seed); err != nil {
		return err
	}
	if w.shapes, err = smallShapes(w.r); err != nil {
		return err
	}
	for _, s := range w.shapes {
		w.plans = append(w.plans, s.plan)
	}
	// 64 launches per rotation, each plan 16 times, order from the seed.
	for i := 0; i < 64; i++ {
		w.order = append(w.order, i%len(w.plans))
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	w.ops = 64 * 100 // about 0.1 s a trial
	if w.sc.tiny {
		w.ops = 64 * 4
	}
	// Set-up ends with one rotation, so each plan's first launch (and
	// anything a launch builds lazily) is set-up time, not steady state.
	var warm trialResult
	runOps(w.plans, w.order, len(w.order), nil, &warm)
	if warm.err != nil {
		return warm.err
	}
	return replay(w.shapes, w.order, len(w.order))
}

func (w *launchSmall) trial(rec *recorder, t *trialResult) error {
	runOps(w.plans, w.order, w.ops, rec, t)
	return nil
}

// host replays a trial: the same kernels in the same order.
func (w *launchSmall) host() error { return replay(w.shapes, w.order, w.ops) }

func (w *launchSmall) verify() error { return checkAll(w.shapes) }

func (w *launchSmall) close() error { return nil }

// replay runs n ops of the rotation through the shapes' host code.
func replay(shapes []*shape, order []int, n int) error {
	for k := 0; k < n; k++ {
		if err := shapes[order[k%len(order)]].host(); err != nil {
			return err
		}
	}
	return nil
}

func checkAll(shapes []*shape) error {
	for _, s := range shapes {
		if err := s.check(); err != nil {
			return err
		}
	}
	return nil
}

func (w *launchSmall) layers(rec *recorder, m metrics, t *trialResult, untracedUS float64) error {
	var mix []probed
	for _, s := range w.shapes {
		mix = append(mix, probed{name: s.name, desc: s.desc, host: s.host, weight: 1 / float64(len(w.shapes)), reps: 1000})
	}
	if err := w.r.probeLayers(rec, m, mix); err != nil {
		return err
	}
	if err := w.r.probeRuntime(rec, m, w.shapes[0].desc, w.plans, w.order, 200, 1); err != nil {
		return err
	}
	attribute(m, untracedUS, m["mealibrt.execute_us"])
	return w.probeTelemetry(m)
}

// probeTelemetry prices the observability layer: the same rotation on a
// runtime with a tracer against the tracer-less one, and the heap the
// tracer's event buffers keep per launch over a 20 000-launch stint
// (cmd/mealibd always runs with the tracer on).
func (w *launchSmall) probeTelemetry(m metrics) error {
	const launches = 20000
	n := launches
	if w.sc.tiny {
		n = 256
	}
	cfg := mealibrt.DefaultConfig()
	cfg.Tracer = telemetry.New()
	r, err := newRig(cfg, 1)
	if err != nil {
		return err
	}
	shapes, err := smallShapes(r)
	if err != nil {
		return err
	}
	var plans []*mealibrt.Plan
	for _, s := range shapes {
		plans = append(plans, s.plan)
	}
	var off, on trialResult
	runOps(w.plans, w.order, n, nil, &off)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runOps(plans, w.order, n, nil, &on)
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	if on.err != nil {
		return on.err
	}
	m["telemetry.tracer_on_ratio"] = on.wall.Seconds() / off.wall.Seconds()
	m["telemetry.trace_bytes_per_launch"] = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / float64(n)
	m["mealibrt.stalls"] = float64(cfg.Tracer.Metrics().Counter("rt.admission_stalls").Value())
	return nil
}
