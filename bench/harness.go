package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/units"
)

// workload is one named closed-loop load. setup builds everything from the
// seed; trial runs the fixed op schedule once through the engine; host
// replays the same op sequence as direct internal/kernels calls on host
// mirrors of the buffers (it is both the host_ratio reference and the
// correctness oracle); verify compares the two bit for bit.
type workload interface {
	setup(seed int64) error
	// trial runs the schedule. A nil recorder is the timed path; a non-nil
	// one wraps every op in a root span with a child span per real call
	// into a layer, and accumulates the model-clock accounting in t.
	trial(rec *recorder, t *trialResult) error
	host() error
	verify() error
	// layers makes the shadow calls of the traced run: the workload's own
	// descriptors driven through each layer's public functions, outside in.
	// t is the traced trial, untracedUS the untraced wall per op.
	layers(rec *recorder, m metrics, t *trialResult, untracedUS float64) error
	close() error
}

// scale sizes a run: the full benchmark, or the tiny trial bench_test.go
// runs so the package keeps compiling and verifying.
type scale struct {
	tiny bool
	// Set-up is repeated at least minSetups times and until setupBudget is
	// spent or maxSetups is reached; setup_s is the median. A set-up of a
	// millisecond is repeated often, so its median holds still.
	minSetups, maxSetups int
	setupBudget          time.Duration
	// minTrials measured trials run even when the time budget is spent.
	minTrials int
}

var fullScale = scale{minSetups: 5, maxSetups: 201, setupBudget: time.Second, minTrials: 10}
var tinyScale = scale{tiny: true, minSetups: 1, maxSetups: 1, minTrials: 1}

func newWorkload(name string, sc scale) (workload, error) {
	switch name {
	case "launch_small":
		return &launchSmall{sc: sc}, nil
	case "loop_kernels":
		return &loopKernels{sc: sc}, nil
	case "pipeline":
		return &pipeline{sc: sc}, nil
	case "serve":
		return &serve{sc: sc}, nil
	case "graph":
		return &graphLoad{sc: sc}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

var workloadNames = []string{"launch_small", "loop_kernels", "pipeline", "serve", "graph"}

// modelAcc sums the model-clock accounting of the launches of one trial. The
// counts are floats because a launch the server batched books a share of the
// merged flight to each member.
type modelAcc struct {
	time, overhead, fetchDecode units.Seconds
	energy, idle                units.Joules
	comps, chunks               float64
	dram, elided, noc, staged   float64
	batched                     int // launches that shared a flight
	perOp                       map[descriptor.OpCode]units.Seconds
}

func (a *modelAcc) addInvocation(inv *mealibrt.Invocation) {
	a.time += inv.TotalTime()
	a.energy += inv.TotalEnergy()
	a.overhead += inv.OverheadTime
	a.idle += inv.HostIdleEnergy
	rep := inv.Report
	a.comps += float64(rep.Comps)
	a.chunks += float64(rep.OOCChunks)
	a.elided += float64(rep.ElidedBytes)
	a.noc += float64(rep.NoCBytes)
	a.staged += float64(rep.StagedBytes)
	a.fetchDecode += rep.FetchDecodeTime
	if a.perOp == nil {
		a.perOp = map[descriptor.OpCode]units.Seconds{}
	}
	// Opcode order, not map order: float sums must repeat exactly.
	for op := descriptor.OpCode(1); op.Valid(); op++ {
		if st := rep.PerOp[op]; st != nil {
			a.dram += float64(st.Bytes)
			a.perOp[op] += st.Time
		}
	}
	a.dram -= float64(rep.ElidedBytes)
}

// trialResult is what one pass over the op schedule produced.
type trialResult struct {
	ops     int           // launches (iterations on graph), all callers together
	callers int           // goroutines that issued them
	wall    time.Duration // engine wall of the trial
	lat     []float64     // per-op wall latency, microseconds
	failed  int           // ops that returned an error
	err     error         // first such error
	acc     modelAcc      // filled on the traced path only
}

func (t *trialResult) fail(err error) {
	t.failed++
	if t.err == nil {
		t.err = err
	}
}

// The probe is a fixed piece of work that uses none of the code under test:
// an arithmetic loop over two small vectors, then a run of goroutine
// hand-offs. It runs right before and right after every set-up and every
// trial, about a millisecond each time. The box is a 2-vCPU VM on a shared
// host whose speed moves by tens of percent, in levels that last from
// seconds to minutes, and the probe moves with it: dividing a trial's wall
// time by the probe's slowdown in the same moment takes most of that out
// (README.md has the numbers).
const (
	probePasses   = 200
	probeHandoffs = 1000
	// probeNominal is about what the probe takes on this box when it is
	// left alone; wall metrics are scaled to the speed at which it takes
	// this.
	probeNominal = 1100 * time.Microsecond
)

// The probe's data is pointer-free package data, not heap: the collector's
// pacing, and with it the collections a trial pays for, does not see it.
var probeX, probeY [4096]float32

func init() {
	for i := range probeX {
		probeX[i] = float32(i)
	}
}

func probe() time.Duration {
	t0 := time.Now()
	for r := 0; r < probePasses; r++ {
		for i := range probeX {
			probeY[i] += 0.5 * probeX[i]
		}
	}
	for i := 0; i < probeHandoffs; i++ {
		done := make(chan struct{})
		go func() { close(done) }()
		<-done
	}
	return time.Since(t0)
}

// unscaled names the workloads whose wall times are reported as measured.
// graph streams a matrix that fits no cache and first-touches four fresh
// stacks every trial: it is bound by memory, barely notices when the host
// slows the processor down, and is steady to a few percent as it is;
// dividing it by the probe would only add the probe's movement to it.
var unscaled = map[string]bool{"graph": true}

// slowdown is how much slower than nominal the machine ran between two
// probes; 1 for a workload that is not scaled.
func slowdown(name string, before, after time.Duration) float64 {
	if unscaled[name] {
		return 1
	}
	return float64(before+after) / 2 / float64(probeNominal)
}

// timedResult holds the end-to-end numbers of one timed run.
type timedResult struct {
	Metrics map[string]summary `json:"metrics"`
	// Slowdown is the machine's speed during the run as the probe saw it,
	// over set-ups and trials alike: 1 is the nominal speed the wall metrics
	// are scaled to, so a raw wall time is about the metric times this.
	Slowdown summary `json:"machine_slowdown"`
	Trials   int     `json:"trials"`
	Samples  int     `json:"latency_samples"`
	OpsTrial int     `json:"ops_per_trial"`

	attempted, failed int
	err               error
}

// runTimed measures the end-to-end metrics with tracing off: set-up repeated
// as sc says, one discarded warm-up trial, then measured trials until the
// time budget is spent. Each trial interleaves the host replay, so
// host_ratio compares runs a moment apart, and is verified outside the
// timer. Set-ups and trials alike are timed between two probes and scaled
// by the slowdown these saw.
func runTimed(name string, seed int64, seconds units.Seconds, sc scale) (*timedResult, error) {
	var w workload
	var setups, slows []float64
	probe() // the first one runs cold
	setupStart := time.Now()
	for i := 0; i < sc.minSetups || (i < sc.maxSetups && time.Since(setupStart) < sc.setupBudget); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if w, err = newWorkload(name, sc); err != nil {
			return nil, err
		}
		runtime.GC()
		p0 := probe()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		took := time.Since(t0)
		slow := slowdown(name, p0, probe())
		setups = append(setups, took.Seconds()/slow)
		slows = append(slows, slow)
	}
	defer w.close()

	res := &timedResult{Metrics: map[string]summary{}}
	series := map[string][]float64{}
	var ms0, ms1 runtime.MemStats
	deadline := time.Now().Add(time.Duration(float64(seconds) * float64(time.Second)))
	for trial := -1; trial < sc.minTrials || time.Now().Before(deadline); trial++ {
		var t trialResult
		p0 := probe()
		runtime.ReadMemStats(&ms0)
		if err := w.trial(nil, &t); err != nil {
			return nil, fmt.Errorf("%s: trial: %w", name, err)
		}
		runtime.ReadMemStats(&ms1)

		// Let the collector finish the trial's garbage first, or it runs
		// under the second probe and the host replay and the two-core box
		// charges it to them.
		runtime.GC()
		slow := slowdown(name, p0, probe())
		h0 := time.Now()
		if err := w.host(); err != nil {
			return nil, fmt.Errorf("%s: host replay: %w", name, err)
		}
		hostWall := time.Since(h0)
		verr := w.verify()
		if trial < 0 {
			// The warm-up trial fills caches and pools; it is verified but
			// not measured.
			if verr != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", name, verr)
			}
			continue
		}
		res.attempted += t.ops
		res.failed += t.failed
		if verr != nil {
			res.failed += t.ops - t.failed
			t.fail(verr)
		}
		if t.err != nil && res.err == nil {
			res.err = t.err
		}
		res.OpsTrial = t.ops
		ops := float64(t.ops)
		slows = append(slows, slow)
		series["wall_us_per_op"] = append(series["wall_us_per_op"], float64(t.wall.Nanoseconds())/1e3/(ops/float64(t.callers))/slow)
		series["ops_per_s"] = append(series["ops_per_s"], ops/t.wall.Seconds()*slow)
		series["host_ratio"] = append(series["host_ratio"], hostWall.Seconds()/t.wall.Seconds())
		series["allocs_per_op"] = append(series["allocs_per_op"], float64(ms1.Mallocs-ms0.Mallocs)/ops)
		series["alloc_kb_per_op"] = append(series["alloc_kb_per_op"], float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops)
		sort.Float64s(t.lat)
		series["p90_us"] = append(series["p90_us"], quantile(t.lat, 0.90)/slow)
		res.Samples += len(t.lat)
		res.Trials++
	}
	series["setup_s"] = setups
	res.Slowdown = summarize(slows)
	for _, d := range endToEnd {
		res.Metrics[d.Name] = summarize(series[d.Name])
	}
	return res, nil
}

// tracedResult holds the per-layer numbers of one traced run.
type tracedResult struct {
	Metrics metrics `json:"metrics"`
	Spans   int     `json:"spans"`

	attempted, failed int
	err               error
}

// runTraced makes the separate traced run: a warm-up trial, one untraced
// trial for reference, the same trial again under the span recorder, then
// the workload's shadow calls. The schedule is fixed (no
// time budget), so every model-clock and count metric repeats exactly for a
// given seed.
func runTraced(name string, seed int64, sc scale, spanFile string) (*tracedResult, error) {
	w, err := newWorkload(name, sc)
	if err != nil {
		return nil, err
	}
	if err := w.setup(seed); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", name, err)
	}
	defer w.close()

	m := metrics{}
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	res := &tracedResult{Metrics: m}
	rec := newRecorder()
	var warm, plain, traced trialResult
	for _, t := range []*trialResult{&warm, &plain, &traced} {
		var r *recorder
		if t == &traced {
			r = rec
		}
		if err := w.trial(r, t); err != nil {
			return nil, fmt.Errorf("%s: trial: %w", name, err)
		}
		if err := w.host(); err != nil {
			return nil, fmt.Errorf("%s: host replay: %w", name, err)
		}
		res.attempted += t.ops
		res.failed += t.failed
		if verr := w.verify(); verr != nil {
			res.failed += t.ops - t.failed
			t.fail(verr)
		}
		if res.err == nil {
			res.err = t.err
		}
	}

	perCaller := float64(plain.ops) / float64(plain.callers)
	untracedUS := float64(plain.wall.Nanoseconds()) / 1e3 / perCaller
	tracedUS := float64(traced.wall.Nanoseconds()) / 1e3 / perCaller
	m["bench.trace_overhead_ratio"] = tracedUS / untracedUS
	ops := float64(traced.ops)
	a := &traced.acc
	m["model_us_per_op"] = float64(a.time) * 1e6 / ops
	m["model_uj_per_op"] = float64(a.energy) * 1e6 / ops
	m["failed_share"] = float64(res.failed) / float64(res.attempted)
	m["mealibrt.overhead_model_us"] = float64(a.overhead) * 1e6 / ops
	m["mealibrt.host_idle_uj"] = float64(a.idle) * 1e6 / ops
	m["accel.comps"] = a.comps / ops
	m["accel.ooc_chunks"] = a.chunks / ops
	m["accel.dram_bytes"] = a.dram / ops
	m["accel.elided_bytes"] = a.elided / ops
	m["accel.noc_bytes"] = a.noc / ops
	m["accel.staged_bytes"] = a.staged / ops
	m["accel.fetch_decode_model_us"] = float64(a.fetchDecode) * 1e6 / ops
	for op := descriptor.OpCode(1); op.Valid(); op++ {
		m["accel.model_us."+op.String()] = float64(a.perOp[op]) * 1e6 / ops
	}

	if err := w.layers(rec, m, &traced, untracedUS); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", name, err)
	}
	res.Spans = len(rec.spans)
	if spanFile != "" {
		if err := rec.write(spanFile); err != nil {
			fmt.Fprintln(os.Stderr, "mealib-bench: writing spans:", err)
		}
	}
	return res, nil
}
