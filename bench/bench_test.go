package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload for one tiny trial, timed and
// traced: the package keeps compiling against internal/..., every workload
// still verifies bit for bit against its host replay, and every metric the
// tables name is reported.
func TestWorkloadsTiny(t *testing.T) {
	sockDir = t.TempDir()
	for _, name := range workloadNames {
		name := name
		t.Run(name, func(t *testing.T) {
			timed, err := runTimed(name, 7, 0, tinyScale)
			if err != nil {
				t.Fatal(err)
			}
			if timed.failed != 0 || timed.attempted == 0 {
				t.Fatalf("timed run: %d of %d ops failed: %v", timed.failed, timed.attempted, timed.err)
			}
			for _, d := range endToEnd {
				if v := timed.Metrics[d.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", d.Name, v)
				}
			}
			traced, err := runTraced(name, 7, tinyScale, "")
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 || traced.attempted == 0 {
				t.Fatalf("traced run: %d of %d ops failed: %v", traced.failed, traced.attempted, traced.err)
			}
			if len(traced.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, the table names %d", len(traced.Metrics), len(perLayer))
			}
			for _, k := range []string{"model_us_per_op", "model_uj_per_op", "kernels.host_us", "bench.trace_overhead_ratio"} {
				if !(traced.Metrics[k] > 0) {
					t.Errorf("%s = %v, want a positive value", k, traced.Metrics[k])
				}
			}
			// Only the service workload goes through the wire layer.
			if got := traced.Metrics["mealibd.roundtrip_us"] > 0; got != (name == "serve") {
				t.Errorf("mealibd.roundtrip_us = %v on %s", traced.Metrics["mealibd.roundtrip_us"], name)
			}
			if traced.Spans == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestTracedRunRepeats checks the property -compare's exact verdicts rest on:
// the same seed gives the same model-clock and count metrics.
func TestTracedRunRepeats(t *testing.T) {
	sockDir = t.TempDir()
	for _, name := range []string{"launch_small", "loop_kernels", "graph"} {
		a, err := runTraced(name, 3, tinyScale, "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runTraced(name, 3, tinyScale, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range perLayer {
			if d.Exact && exactVerdict(d, a.Metrics[d.Name], b.Metrics[d.Name], modelSlack(name, d)) != "same" {
				t.Errorf("%s: %s = %v, then %v", name, d.Name, a.Metrics[d.Name], b.Metrics[d.Name])
			}
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the repository root to the metric
// tables (regenerate it with -manifest) and to the limits its reader sets.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with -manifest")
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming limits or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check(d)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(endToEnd), len(perLayer))
	}
	for _, n := range workloadNames {
		if why := workloadWhy[n]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why is %d characters", n, len(why))
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := metricDef{Name: "wall_us_per_op", Unit: "us", Better: "lower", Bound: 0.10}
	tight := func(v float64) summary { return summary{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 100} }
	loose := summary{Value: 100, Q1: 50, Q3: 150, N: 4}
	for _, c := range []struct {
		a, b summary
		want string
	}{
		{tight(100), tight(105), "same"},
		{tight(100), tight(115), "worse"},
		{tight(100), tight(85), "better"},
		{tight(100), loose, "unresolved"},
	} {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v -> %v) = %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	up := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(up, tight(100), tight(85)); got != "worse" {
		t.Errorf("a higher-is-better metric that fell 15%% is %s, want worse", got)
	}
	exact := metricDef{Name: "model_us_per_op", Better: "lower", Exact: true}
	if got := exactVerdict(exact, 1, 1, 0); got != "same" {
		t.Errorf("equal exact values are %s", got)
	}
	if got := exactVerdict(exact, 1, 1.0000001, 0); got != "worse" {
		t.Errorf("an exact metric that rose is %s, want worse", got)
	}
	if got := exactVerdict(exact, 1, 1.0001, 0.001); got != "same" {
		t.Errorf("a rise inside the slack is %s, want same", got)
	}
	if got := exactVerdict(exact, 0, 3, 0); got != "worse" {
		t.Errorf("a lower-is-better metric that appeared is %s, want worse", got)
	}
}

// TestCompareFiles runs -compare over two result files end to end.
func TestCompareFiles(t *testing.T) {
	mk := func(wall, model float64) string {
		f := resultFile{Workloads: map[string]*workloadResult{"launch_small": {
			Timed:  &timedResult{Metrics: map[string]summary{"wall_us_per_op": {Value: wall, Q1: wall, Q3: wall, N: 20}}},
			Traced: &tracedResult{Metrics: metrics{"model_us_per_op": model}},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := t.TempDir() + "/r.json"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, mk(10, 5), mk(10.5, 5))
	if err != nil || worse {
		t.Fatalf("5%% slower within a 10%% bound: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, mk(10, 5), mk(10, 5.5))
	if err != nil || !worse {
		t.Fatalf("a changed model metric must read worse: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

func TestSlowdown(t *testing.T) {
	if got := slowdown("serve", probeNominal, 3*probeNominal); got != 2 {
		t.Errorf("probes of 1x and 3x nominal give a slowdown of %v, want 2", got)
	}
	if got := slowdown("graph", probeNominal, 3*probeNominal); got != 1 {
		t.Errorf("graph is reported as measured, but its slowdown is %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{ID: 1, Name: "op", StartNS: 0, EndNS: 10000},
		{ID: 2, Parent: 1, Name: "child", StartNS: 1000, EndNS: 4000},
		{ID: 3, Parent: 1, Name: "child", StartNS: 5000, EndNS: 6000},
	}
	self := r.selfMicros()
	if self["op"] != 6 || self["child"] != 2 {
		t.Errorf("self times %v, want op 6 us and child 2 us", self)
	}
}
