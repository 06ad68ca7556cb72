package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// worseBy returns how much worse b is than a as a share of a; negative when
// b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / a
	if d.Better == "higher" {
		rel = -rel
	}
	return rel
}

// verdict judges one end-to-end wall metric of b against a by its bound. A
// run that did not pin its own median to within the bound cannot show a
// difference of that size either way: unresolved.
func verdict(d metricDef, a, b summary) string {
	if a.resolution() > d.Bound || b.resolution() > d.Bound {
		return "unresolved"
	}
	switch rel := worseBy(d, a.Value, b.Value); {
	case rel > d.Bound:
		return "worse"
	case rel < -d.Bound:
		return "better"
	}
	return "same"
}

// modelSlack is the share by which a model-clock or count metric may differ
// between two runs of one commit and seed before it counts as changed: 0
// wherever the metric is a function of the seed alone. On serve it is not:
// which tenant's launch the runtime admits first decides whose invocation
// pays the cache flush and who is billed the shared idle window. On graph
// the energy is not quite: the idle window billed depends on whether a
// flight retires before the caller has admitted the next one (seen at the
// test's 2^12 vertices, two values 0.013% apart; not at 2^16).
func modelSlack(workload string, d metricDef) float64 {
	switch {
	case workload == "serve" && layerOf(d.Name) != "tdlcheck" && layerOf(d.Name) != "descriptor":
		return 0.05
	case workload == "graph" && d.Unit == "sim_uJ":
		return 0.001
	}
	return 0
}

// exactVerdict judges a metric that must repeat to within slack: a larger
// difference is a change, in the metric's direction.
func exactVerdict(d metricDef, a, b, slack float64) string {
	if a == b {
		return "same"
	}
	rel := worseBy(d, a, b)
	if a == 0 { // nothing to take a share of: any value is a change
		rel = b
		if d.Better == "higher" {
			rel = -b
		}
	}
	switch {
	case rel > slack:
		return "worse"
	case rel < -slack:
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload, the verdict on every end-to-end metric
// (same, better, worse or unresolved) and every per-layer metric that must
// repeat exactly and did not. It reports whether anything got worse.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s commit %s seed %d, %s, GOMAXPROCS %d\n", pathA, a.Header.Commit, a.Header.Seed, a.Header.GoVersion, a.Header.GoMaxProcs)
	fmt.Fprintf(w, "b: %s commit %s seed %d, %s, GOMAXPROCS %d\n", pathB, b.Header.Commit, b.Header.Seed, b.Header.GoVersion, b.Header.GoMaxProcs)
	if a.Header.Seed != b.Header.Seed {
		fmt.Fprintln(w, "the seeds differ: exact metrics are expected to differ too")
	}
	worse := false
	for _, name := range workloadNames {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil || rb == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", name)
		row := func(d metricDef, va, vb float64, v string) {
			fmt.Fprintf(w, "  %-34s %14.6g -> %-14.6g %-6s %+7.2f%%  %s\n", d.Name, va, vb, d.Unit, 100*worseBy(d, va, vb), v)
			worse = worse || v == "worse"
		}
		if ra.Timed != nil && rb.Timed != nil {
			for _, d := range endToEnd {
				sa, sb := ra.Timed.Metrics[d.Name], rb.Timed.Metrics[d.Name]
				row(d, sa.Value, sb.Value, verdict(d, sa, sb))
			}
		}
		if ra.Traced == nil || rb.Traced == nil {
			continue
		}
		for _, d := range perLayer {
			va, vb := ra.Traced.Metrics[d.Name], rb.Traced.Metrics[d.Name]
			if !d.Exact {
				// Per-layer wall metrics carry no bound: they explain an
				// end-to-end verdict, they do not make one.
				continue
			}
			if v := exactVerdict(d, va, vb, modelSlack(name, d)); v != "same" || layerOf(d.Name) == "end-to-end" {
				row(d, va, vb, v)
			}
		}
	}
	return worse, nil
}
