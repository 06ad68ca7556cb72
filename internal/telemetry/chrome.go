package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// chromeEvent is one record of the Chrome/Perfetto trace_event format
// (the "JSON Array Format" both chrome://tracing and ui.perfetto.dev
// load). Timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// WriteChromeTrace serialises every recorded event as trace_event JSON.
// Each Buf becomes one named thread ("accel #3") of process "mealib";
// span model-clock durations and inline args land in the event args.
// Call it after the traced work has completed.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	out := chromeTrace{DisplayTimeUnit: "ms"}
	out.TraceEvents = append(out.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "mealib"},
	})
	for _, b := range t.snapshotBufs() {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: b.tid,
			Args: map[string]any{"name": fmt.Sprintf("%s #%d", b.track, b.tid)},
		})
		for i := range b.events {
			e := &b.events[i]
			ce := chromeEvent{
				Name: e.name,
				Cat:  e.typ.String(),
				Ph:   string(rune(e.phase)),
				TS:   float64(e.wall) / 1e3,
				PID:  1,
				TID:  b.tid,
			}
			if e.phase == phaseInstant {
				ce.S = "t" // thread-scoped instant
			}
			args := make(map[string]any)
			if e.model != 0 {
				args["model_us"] = float64(e.model) * 1e6
			}
			for _, a := range e.args {
				if a.Key != "" {
					args[a.Key] = a.Val
				}
			}
			if len(args) > 0 {
				ce.Args = args
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// TraceCheck summarises a validated Chrome trace.
type TraceCheck struct {
	// Events counts non-metadata events.
	Events int
	// TrackKinds are the distinct thread kinds ("accel", "runtime",
	// "dram", ...) named by the metadata events, sorted.
	TrackKinds []string
	// Spans counts completed (B/E-matched) spans per category.
	Spans map[string]int
}

// ValidateChromeTrace parses data as trace_event JSON and enforces the
// invariants the exporter guarantees: per-thread timestamps are monotone
// non-decreasing, and B/E events nest and balance on every thread. It is
// the self-check behind mealib-trace and the golden trace tests.
func ValidateChromeTrace(data []byte) (*TraceCheck, error) {
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("telemetry: trace does not parse: %w", err)
	}
	kinds := make(map[string]bool)
	lastTS := make(map[int]float64)
	stacks := make(map[int][]string)
	spans := make(map[string]int)
	n := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "M" {
			if e.Name == "thread_name" {
				if nm, ok := e.Args["name"].(string); ok {
					kinds[trackKind(nm)] = true
				}
			}
			continue
		}
		n++
		if last, ok := lastTS[e.TID]; ok && e.TS < last {
			return nil, fmt.Errorf("telemetry: tid %d timestamps not monotone (%.3f after %.3f)", e.TID, e.TS, last)
		}
		lastTS[e.TID] = e.TS
		switch e.Ph {
		case "B":
			stacks[e.TID] = append(stacks[e.TID], e.Cat)
		case "E":
			st := stacks[e.TID]
			if len(st) == 0 {
				return nil, fmt.Errorf("telemetry: tid %d has E %q without matching B", e.TID, e.Cat)
			}
			top := st[len(st)-1]
			if e.Cat != "" && top != e.Cat {
				return nil, fmt.Errorf("telemetry: tid %d closes %q while %q is open", e.TID, e.Cat, top)
			}
			stacks[e.TID] = st[:len(st)-1]
			spans[top]++
		case "i":
			// Instants carry no pairing obligation.
		default:
			return nil, fmt.Errorf("telemetry: unsupported phase %q", e.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			return nil, fmt.Errorf("telemetry: tid %d has %d unclosed span(s), innermost %q", tid, len(st), st[len(st)-1])
		}
	}
	tc := &TraceCheck{Events: n, Spans: spans}
	for k := range kinds {
		tc.TrackKinds = append(tc.TrackKinds, k)
	}
	sort.Strings(tc.TrackKinds)
	return tc, nil
}

// trackKind strips the " #tid" suffix the exporter appends to thread
// names, leaving the track kind.
func trackKind(name string) string {
	if i := strings.LastIndex(name, " #"); i >= 0 {
		return name[:i]
	}
	return name
}

// Summary renders a human-readable digest: event and span counts per
// type, tracks, and the metric snapshot. Call after the traced work has
// completed.
func (t *Tracer) Summary() string {
	if t == nil {
		return "telemetry: disabled\n"
	}
	spanCount := t.Spans()
	events := 0
	tracks := make(map[string]int)
	bufs := t.snapshotBufs()
	for _, b := range bufs {
		tracks[b.track]++
		events += len(b.events)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "telemetry: %d events on %d buffers\n", events, len(bufs))
	names := make([]string, 0, len(tracks))
	for k := range tracks {
		names = append(names, k)
	}
	sort.Strings(names)
	sb.WriteString("tracks:")
	for _, k := range names {
		fmt.Fprintf(&sb, " %s(%d)", k, tracks[k])
	}
	sb.WriteString("\nspans:")
	for ty := SpanType(0); ty < numSpanTypes; ty++ {
		if spanCount[ty] > 0 {
			fmt.Fprintf(&sb, " %s=%d", ty, spanCount[ty])
		}
	}
	sb.WriteString("\n")
	snap := t.metrics.Snapshot()
	writeSorted := func(kind string, vals map[string]int64) {
		if len(vals) == 0 {
			return
		}
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s = %d\n", kind, k, vals[k])
		}
	}
	writeSorted("counter", snap.Counters)
	writeSorted("gauge", snap.Gauges)
	if len(snap.Histograms) > 0 {
		keys := make([]string, 0, len(snap.Histograms))
		for k := range snap.Histograms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := snap.Histograms[k]
			fmt.Fprintf(&sb, "hist %s: count=%d mean=%.1f p50<=%d p90<=%d max=%d\n",
				k, h.Count, h.Mean, h.P50, h.P90, h.Max)
		}
	}
	return sb.String()
}
