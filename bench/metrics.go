package main

import "strings"

// metricDef names one metric. The same table feeds the result printer, the
// -compare verdicts and BENCHMARK.json (bench_test.go pins the file to it).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// wall metric may worsen before -compare calls it worse. Zero on a
	// metric that must repeat exactly.
	Bound float64
	// Exact marks model-clock and count metrics: a deterministic simulator
	// with a fixed seed repeats them bit for bit, so any difference is a
	// change.
	Exact bool
}

// endToEnd are the wall-clock metrics a caller of the library sees. Every
// workload reports every one of them, and none is ever zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "host_ratio", Unit: "ratio", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
}

// modelEndToEnd are the model-clock end-to-end metrics. They come from the
// traced run's fixed schedule so they repeat exactly; the driver's contract
// wants end-to-end metrics that vary and are never zero, so BENCHMARK.json
// lists these four among the per-layer metrics.
var modelEndToEnd = []metricDef{
	{Name: "model_us_per_op", Unit: "sim_us", Better: "lower", Exact: true},
	{Name: "model_uj_per_op", Unit: "sim_uJ", Better: "lower", Exact: true},
	{Name: "paper_err_pct", Unit: "pct", Better: "lower", Exact: true},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Exact: true},
}

var opNames = []string{"AXPY", "DOT", "GEMV", "SPMV", "RESMP", "FFT", "RESHP"}

var loopShapeNames = []string{"AXPY", "DOT", "GEMV", "SPMV", "RESMP", "FFT", "CHAIN", "RESHP", "OOC"}

// perLayer lists every metric of the traced run, layer by layer, outside in.
// A layer a workload does not reach reports 0 for its metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	wall := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	exact := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: "lower", Exact: true})
		}
	}
	out = append(out, modelEndToEnd...)

	wall("lower", "us", "mealibd.codec_us", "mealibd.dial_us", "mealibd.roundtrip_us", "mealibd.self_us",
		"mealibd.roundtrip_p99_us", "mealibd.roundtrip_p999_us", "mealibd.store_us", "mealibd.load_us", "mealibd.plan_us")
	wall("higher", "ratio", "mealibd.batched_share")

	wall("lower", "us", "mealibrt.plan_install_us", "mealibrt.submit_us", "mealibrt.wait_us", "mealibrt.execute_us",
		"mealibrt.self_us", "mealibrt.execute_2callers_us", "mealibrt.alloc_free_us")
	wall("higher", "MB/s", "mealibrt.store_mb_s", "mealibrt.load_mb_s", "mealibrt.device_copy_mb_s")
	exact("sim_us", "mealibrt.overhead_model_us")
	exact("sim_uJ", "mealibrt.host_idle_uj")
	wall("lower", "count", "mealibrt.stalls")

	wall("lower", "us", "tdlcheck.verify_us", "tdlcheck.footprint_us")
	exact("count", "tdlcheck.init_spans")

	wall("lower", "us", "descriptor.encode_us", "descriptor.decode_us")
	exact("bytes", "descriptor.bytes")

	wall("lower", "us", "accel.lower_us", "accel.run_us", "accel.run_serial_us", "accel.model_eval_us", "accel.plan_ooc_us")
	wall("higher", "ratio", "accel.parallel_speedup")
	exact("count", "accel.nodes", "accel.waves", "accel.max_width", "accel.fused_groups", "accel.streamed_launches",
		"accel.comps", "accel.ooc_chunks")
	exact("bytes", "accel.dram_bytes", "accel.elided_bytes", "accel.noc_bytes", "accel.staged_bytes")
	exact("sim_us", "accel.fetch_decode_model_us")
	for _, op := range opNames {
		exact("sim_us", "accel.model_us."+op)
	}

	wall("lower", "us", "kernels.host_us")
	wall("lower", "ratio", "kernels.share")

	wall("lower", "us", "multistack.shard_us", "multistack.step_us")
	exact("sim_us", "multistack.compute_model_us", "multistack.exchange_model_us")
	exact("bytes", "multistack.exchange_bytes")
	wall("lower", "us", "sparse.partition_us")
	exact("count", "sparse.edge_cut")
	wall("lower", "ns", "noc.send_ns")
	exact("sim_uJ", "noc.link_uj")
	exact("sim_us", "noc.egress_busy_model_us")
	wall("higher", "MB/s", "phys.store_mb_s", "phys.load_mb_s")

	wall("lower", "ratio", "telemetry.tracer_on_ratio")
	wall("lower", "bytes", "telemetry.trace_bytes_per_launch")

	wall("lower", "us", "stap.doppler_us", "stap.solve_us", "stap.inner_us", "sar.form_us",
		"graph.pagerank_iter_us", "graph.bfs_iter_us")
	out = append(out, metricDef{Name: "graph.model_speedup_vs_1stack", Unit: "ratio", Better: "higher", Exact: true})

	for _, s := range loopShapeNames {
		wall("lower", "us", "loop."+s+"_us")
		wall("higher", "ratio", "loop."+s+"_host_ratio")
	}

	wall("lower", "ratio", "bench.trace_overhead_ratio", "bench.unattributed_share")
	return out
}

// metrics is one run's values by metric name.
type metrics map[string]float64

// layerOf returns the layer prefix of a per-layer metric name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "end-to-end"
}
