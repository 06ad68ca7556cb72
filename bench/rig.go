package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mealib/internal/accel"
	"mealib/internal/analysis/tdlcheck"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/units"
)

var ctx = context.Background()

// rig is one in-process runtime with seeded buffers. Every buffer keeps a
// host mirror: the host replay works on the mirrors with direct kernel
// calls, and verification compares device and mirror bit for bit.
type rig struct {
	rt  *mealibrt.Runtime
	rng *rand.Rand
	// init lists every span the bench stored to: what the shadow
	// tdlcheck.VerifyDescriptor call is given as initialized data, the way
	// the runtime passes its own set at launch.
	init []tdlcheck.Span
}

func newRig(cfg *mealibrt.Config, seed int64) (*rig, error) {
	rt, err := mealibrt.New(cfg)
	if err != nil {
		return nil, err
	}
	return &rig{rt: rt, rng: rand.New(rand.NewSource(seed))}, nil
}

// f32buf is a float32 device buffer and its host mirror.
type f32buf struct {
	dev  *mealibrt.Buffer
	host []float32
}

// c64buf is a complex64 device buffer and its host mirror.
type c64buf struct {
	dev  *mealibrt.Buffer
	host []complex64
}

func randF32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func randC64(rng *rand.Rand, n int) []complex64 {
	v := make([]complex64, n)
	for i := range v {
		v[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	return v
}

// f32 allocates n floats; fill stores seeded normals, otherwise zeros. alloc
// is rt.MemAlloc or rt.MemAllocHost.
func (r *rig) f32(alloc func(units.Bytes) (*mealibrt.Buffer, error), n int, fill bool) (*f32buf, error) {
	dev, err := alloc(units.Bytes(4 * n))
	if err != nil {
		return nil, err
	}
	b := &f32buf{dev: dev, host: make([]float32, n)}
	if fill {
		b.host = randF32(r.rng, n)
	}
	if err := dev.StoreFloat32s(0, b.host); err != nil {
		return nil, err
	}
	r.init = append(r.init, tdlcheck.Span{Addr: dev.PA(), Bytes: dev.Size()})
	return b, nil
}

func (r *rig) c64(n int, fill bool) (*c64buf, error) {
	dev, err := r.rt.MemAlloc(units.Bytes(8 * n))
	if err != nil {
		return nil, err
	}
	b := &c64buf{dev: dev, host: make([]complex64, n)}
	if fill {
		b.host = randC64(r.rng, n)
	}
	if err := dev.StoreComplex64s(0, b.host); err != nil {
		return nil, err
	}
	r.init = append(r.init, tdlcheck.Span{Addr: dev.PA(), Bytes: dev.Size()})
	return b, nil
}

func (r *rig) i32(v []int32) (*mealibrt.Buffer, error) {
	dev, err := r.rt.MemAlloc(units.Bytes(4 * len(v)))
	if err != nil {
		return nil, err
	}
	if err := dev.StoreInt32s(0, v); err != nil {
		return nil, err
	}
	r.init = append(r.init, tdlcheck.Span{Addr: dev.PA(), Bytes: dev.Size()})
	return dev, nil
}

func (b *f32buf) check(what string) error {
	got, err := b.dev.LoadFloat32s(0, len(b.host))
	if err != nil {
		return err
	}
	return sameF32(what, got, b.host)
}

func (b *c64buf) check(what string) error {
	got, err := b.dev.LoadComplex64s(0, len(b.host))
	if err != nil {
		return err
	}
	return sameC64(what, got, b.host)
}

func sameF32(what string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, host replay has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return fmt.Errorf("%s: element %d = %v, host replay has %v", what, i, got[i], want[i])
		}
	}
	return nil
}

func sameC64(what string, got, want []complex64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d elements, host replay has %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(real(got[i])) != math.Float32bits(real(want[i])) ||
			math.Float32bits(imag(got[i])) != math.Float32bits(imag(want[i])) {
			return fmt.Errorf("%s: element %d = %v, host replay has %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// shape is one installed plan with the host code that does the same
// arithmetic: one kernel call per LOOP iteration, no engine in the path.
type shape struct {
	name  string
	desc  *descriptor.Descriptor
	plan  *mealibrt.Plan
	host  func() error
	check func() error
}

func (r *rig) install(s *shape) error {
	p, err := r.rt.AccPlanDescriptor(s.desc)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.plan = p
	return nil
}

// onePass wraps a single comp in PASS { comp }.
func onePass(op descriptor.OpCode, p descriptor.Params) (*descriptor.Descriptor, error) {
	d := &descriptor.Descriptor{}
	if err := d.AddComp(op, p); err != nil {
		return nil, err
	}
	d.AddEndPass()
	return d, nil
}

// looped wraps a single comp in LOOP iters { PASS { comp } }.
func looped(iters int, op descriptor.OpCode, p descriptor.Params) (*descriptor.Descriptor, error) {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(uint32(iters)); err != nil {
		return nil, err
	}
	if err := d.AddComp(op, p); err != nil {
		return nil, err
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d, nil
}

// execute launches the plan and waits for it. Traced, Execute is spelled as
// the Submit and Wait it consists of, each under its own child span, and
// the invocation lands in the trial's model accounting.
func execute(p *mealibrt.Plan, rec *recorder, t *trialResult, op int) error {
	if rec == nil {
		_, err := p.Execute(ctx)
		return err
	}
	root := rec.begin("op", 0, op)
	defer rec.end(root)
	id := rec.begin("mealibrt.submit", root, op)
	pi, err := p.Submit(ctx)
	rec.end(id)
	if err != nil {
		return err
	}
	id = rec.begin("mealibrt.wait", root, op)
	inv, err := pi.Wait(ctx)
	rec.end(id)
	if err != nil {
		return err
	}
	t.acc.addInvocation(inv)
	return nil
}

// runOps is the closed loop of the single-caller workloads: n ops, the k-th
// launching plans[order[k%len(order)]], each timed individually.
func runOps(plans []*mealibrt.Plan, order []int, n int, rec *recorder, t *trialResult) {
	t.callers = 1
	t.ops = n
	t.lat = make([]float64, 0, n)
	start := time.Now()
	prev := start
	for k := 0; k < n; k++ {
		if err := execute(plans[order[k%len(order)]], rec, t, k); err != nil {
			t.fail(err)
		}
		now := time.Now()
		t.lat = append(t.lat, float64(now.Sub(prev).Nanoseconds())/1e3)
		prev = now
	}
	t.wall = time.Since(start)
}

// usPer times reps calls of fn and returns microseconds per call.
func usPer(reps int, fn func() error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(reps), nil
}

// probed is one descriptor of a workload's mix with its share of the ops.
type probed struct {
	name   string
	desc   *descriptor.Descriptor
	host   func() error
	weight float64
	reps   int
}

// probeStep is one shadow call: the metric it feeds and the call.
type probeStep struct {
	name string
	fn   func() error
}

// probeLayers drives each descriptor of the mix through the public functions
// of the layers under the runtime, outside in, every call a child span of a
// per-repetition root: tdlcheck, descriptor, accel (lowering, run on the
// default and on a one-worker layer, analytic model), kernels. Each metric
// is the mix-weighted mean per op. It runs on the runtime's own space and
// stack-0 layer, so the descriptors are the workload's own, addresses
// included.
func (r *rig) probeLayers(rec *recorder, m metrics, mix []probed) error {
	space, layer := r.rt.Space(), r.rt.Layer()
	serialCfg := *layer.Config()
	serialCfg.Workers = 1
	serial, err := accel.NewLayer(&serialCfg)
	if err != nil {
		return err
	}
	stagingPA, stagingSize := r.rt.Driver().Staging()
	sum := func(name string, w, v float64) { m[name] += w * v }
	for i, p := range mix {
		d := p.desc
		va, base, err := r.rt.Driver().AllocCommand(d.Size())
		if err != nil {
			return err
		}
		writes, err := tdlcheck.Writes(d)
		if err != nil {
			return err
		}
		reads, err := tdlcheck.Reads(d)
		if err != nil {
			return err
		}
		ooc := false
		for _, s := range append(append([]tdlcheck.Span(nil), writes...), reads...) {
			ooc = ooc || r.rt.Driver().InHostWindow(s.Addr)
		}
		steps := []probeStep{
			{"tdlcheck.verify_us", func() error { return tdlcheck.VerifyDescriptor(d, tdlcheck.WithInitialized(r.init...)) }},
			{"tdlcheck.footprint_us", func() error {
				if _, err := tdlcheck.Writes(d); err != nil {
					return err
				}
				_, err := tdlcheck.Reads(d)
				return err
			}},
			{"descriptor.encode_us", func() error { return d.Encode(space, base) }},
			{"descriptor.decode_us", func() error { _, err := descriptor.Decode(space, base); return err }},
			{"accel.lower_us", func() error { _, err := layer.ExplainPlan(d); return err }},
			{"accel.model_eval_us", func() error { _, err := layer.RunModel(d); return err }},
			{"kernels.host_us", p.host},
		}
		if ooc {
			// The accelerators cannot reach host DRAM, so an out-of-core
			// descriptor never runs as written: what the layer does for it
			// is the chunked lowering.
			half := stagingSize / 2
			steps = append(steps, probeStep{"accel.plan_ooc_us", func() error {
				_, err := layer.PlanOOC(d, r.rt.Driver().InHostWindow,
					[2]phys.Addr{stagingPA, stagingPA + phys.Addr(half)}, half)
				return err
			}})
		} else {
			steps = append(steps,
				probeStep{"accel.run_us", func() error { _, err := layer.RunPlain(space, d, base); return err }},
				probeStep{"accel.run_serial_us", func() error { _, err := serial.RunPlain(space, d, base); return err }})
		}
		// One child span per layer call, covering p.reps repetitions of it:
		// the calls are microseconds long, a span around each would measure
		// the recorder.
		root := rec.begin("probe:"+p.name, 0, i)
		acc := map[string]float64{}
		for _, st := range steps {
			// One unrecorded call first: buffers a step touches for the
			// first time page-fault, and with few repetitions that is the
			// measurement.
			if err := st.fn(); err != nil {
				return fmt.Errorf("%s: %s: %w", p.name, st.name, err)
			}
			id := rec.beginReps(st.name, root, i, p.reps)
			for rep := 0; rep < p.reps; rep++ {
				if err := st.fn(); err != nil {
					return fmt.Errorf("%s: %s: %w", p.name, st.name, err)
				}
			}
			acc[st.name] = float64(rec.end(id).Nanoseconds()) / 1e3 / float64(p.reps)
		}
		rec.end(root)
		for name, us := range acc {
			sum(name, p.weight, us)
		}
		info, err := layer.ExplainPlan(d)
		if err != nil {
			return err
		}
		sum("descriptor.bytes", p.weight, float64(d.Size()))
		sum("accel.nodes", p.weight, float64(info.Nodes))
		sum("accel.waves", p.weight, float64(info.Waves))
		sum("accel.max_width", p.weight, float64(info.MaxWidth))
		sum("accel.fused_groups", p.weight, float64(len(info.Fused)))
		if info.SerialChain && info.Waves == 0 {
			// No plan IR: the expansion is past planMaxNodes and the launch
			// runs on the streaming executor.
			sum("accel.streamed_launches", p.weight, 1)
		}
		if err := r.rt.Driver().Free(va); err != nil {
			return err
		}
	}
	m["tdlcheck.init_spans"] = float64(len(r.init))
	if m["accel.run_us"] > 0 {
		m["accel.parallel_speedup"] = m["accel.run_serial_us"] / m["accel.run_us"]
	}
	return nil
}

// probeRuntime times the runtime's own entry points: install and destroy of
// descriptor d, Submit and Wait (from the traced trial's spans), Execute over
// the workload's rotation, Execute of the first plan while a second caller
// loops on the second, alloc and free, and host-side store, load and device
// copy bandwidth. perOp is the launches one op makes (1 but on pipeline):
// execute_us is per op, as every layer metric is.
func (r *rig) probeRuntime(rec *recorder, m metrics, d *descriptor.Descriptor, plans []*mealibrt.Plan, order []int, reps int, perOp float64) error {
	rt := r.rt
	var err error
	if m["mealibrt.plan_install_us"], err = usPer(reps, func() error {
		np, err := rt.AccPlanDescriptor(d)
		if err != nil {
			return err
		}
		return np.Destroy()
	}); err != nil {
		return err
	}
	self := rec.selfMicros()
	m["mealibrt.submit_us"] = self["mealibrt.submit"]
	m["mealibrt.wait_us"] = self["mealibrt.wait"]
	exec := func(p *mealibrt.Plan) func() error {
		return func() error { _, err := p.Execute(ctx); return err }
	}
	k := 0
	if m["mealibrt.execute_us"], err = usPer(reps*len(order), func() error {
		k++
		_, err := plans[order[k%len(order)]].Execute(ctx)
		return err
	}); err != nil {
		return err
	}
	m["mealibrt.execute_us"] *= perOp
	m["mealibrt.self_us"] = m["mealibrt.execute_us"] - m["accel.run_us"]
	p, q := plans[0], plans[1]
	// Two callers on disjoint plans: what Runtime.mu and the shared cores
	// cost a launch when somebody else is launching too.
	other := make(chan error, 1)
	go func() { _, err := usPer(reps, exec(q)); other <- err }()
	m["mealibrt.execute_2callers_us"], err = usPer(reps, exec(p))
	if oerr := <-other; err == nil {
		err = oerr
	}
	if err != nil {
		return err
	}
	if m["mealibrt.alloc_free_us"], err = usPer(reps, func() error {
		b, err := rt.MemAlloc(4 * units.KiB)
		if err != nil {
			return err
		}
		return rt.MemFree(b)
	}); err != nil {
		return err
	}
	return r.probeCopies(m)
}

// probeCopies measures host-side store and load bandwidth through the
// runtime and straight on the physical space, and the device copy, on 1 MiB.
func (r *rig) probeCopies(m metrics) error {
	const n = 1 << 18
	const mb = 4 * n / 1e6
	rt := r.rt
	a, err := rt.MemAlloc(4 * n)
	if err != nil {
		return err
	}
	b, err := rt.MemAlloc(4 * n)
	if err != nil {
		return err
	}
	v := make([]float32, n)
	rate := func(name string, fn func() error) error {
		us, err := usPer(16, fn)
		m[name] = mb / (us / 1e6)
		return err
	}
	if err := rate("mealibrt.store_mb_s", func() error { return a.StoreFloat32s(0, v) }); err != nil {
		return err
	}
	if err := rate("mealibrt.load_mb_s", func() error { _, err := a.LoadFloat32s(0, n); return err }); err != nil {
		return err
	}
	if err := rate("mealibrt.device_copy_mb_s", func() error { return rt.DeviceCopyFloat32s(b, 0, a, 0, n) }); err != nil {
		return err
	}
	if err := rate("phys.store_mb_s", func() error { return rt.Space().StoreFloat32s(a.PA(), v) }); err != nil {
		return err
	}
	if err := rate("phys.load_mb_s", func() error { _, err := rt.Space().LoadFloat32s(a.PA(), n); return err }); err != nil {
		return err
	}
	if err := rt.MemFree(a); err != nil {
		return err
	}
	return rt.MemFree(b)
}

// attribute fills the two harness ratios that tie the layers to the
// end-to-end wall: the kernels' share of an op, and the share of a launch
// (execute_us, or the wire round trip on serve) that no shadow call of a
// layer below accounts for.
func attribute(m metrics, untracedUS, launchUS float64) {
	m["kernels.share"] = m["kernels.host_us"] / untracedUS
	attributed := m["tdlcheck.verify_us"] + m["descriptor.decode_us"] + m["accel.lower_us"] + m["kernels.host_us"] + m["mealibd.codec_us"]
	m["bench.unattributed_share"] = 1 - attributed/launchUS
}
