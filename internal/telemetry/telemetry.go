// Package telemetry is the observability layer of the MEALib stack:
// structured execution tracing plus a metrics registry, exportable as
// Chrome/Perfetto trace_event JSON (chrome.go) and snapshotable as JSON
// (metrics.go). The accelerator layer records descriptor launches, plan
// lowering, waves and nodes; the runtime records Submit/admission/Wait
// windows and flights; the DRAM simulator records trace passes — each on
// its own track, stamped with both monotonic wall time and the model
// clocks, so a trace shows where simulated *and* real time went.
//
// Overhead discipline: a nil *Tracer is the disabled state, and every
// method on Tracer, Buf, Counter, Gauge and Histogram is nil-receiver
// safe and allocation-free in that state — instrumented hot paths pay a
// single predictable branch per call (proven by the AllocsPerRun tests).
// When enabled, each concurrent goroutine records into its own Buf, so
// appends are lock-free; the tracer's mutex is touched only when a buffer
// is acquired or released, and metric handles are resolved once at setup
// so updates are plain atomics.
//
// Exporters read the buffers without synchronising against writers: call
// them after the traced work has completed (a Wait-ed invocation, a
// finished pipeline), never concurrently with it.
package telemetry

import (
	"sync"
	"time"

	"mealib/internal/units"
)

// Track names: one per instrumented subsystem. A track groups the event
// buffers of that subsystem; concurrent goroutines within it appear as
// separate threads ("accel #3") of the same kind.
const (
	TrackAccel   = "accel"   // descriptor launches, plan lowering, waves, nodes
	TrackRuntime = "runtime" // Submit, admission, flights, Wait
	TrackDRAM    = "dram"    // trace-driven DRAM simulator passes
	TrackHost    = "host"    // host-side fallback stages (e.g. STAP weight solve)
	TrackApp     = "app"     // application pipeline stages
	TrackXStack  = "xstack"  // inter-stack link transfers (multi-stack exchanges)
)

// SpanType classifies an event. It doubles as the Chrome trace category,
// so traces can be filtered by kind in the viewer.
type SpanType uint8

// Span types, one per instrumented operation.
const (
	SpanLaunch    SpanType = iota // one descriptor execution end to end
	SpanPlanLower                 // descriptor -> plan IR lowering
	SpanWave                      // one scheduler wave
	SpanNode                      // one block of a plan range (a pass at consecutive iterations)
	SpanSubmit                    // Plan.Submit, doorbell included
	SpanAdmission                 // blocked in span-conflict admission
	SpanFlight                    // descriptor in flight (submit to retire)
	SpanWait                      // Launch.Wait blocking
	SpanDRAMPass                  // one DRAM simulator trace run
	SpanHost                      // host-side (non-accelerated) work
	SpanStage                     // application pipeline stage
	SpanExchange                  // inter-stack vector-segment exchange transfer
	numSpanTypes
)

var spanNames = [numSpanTypes]string{
	"launch", "plan_lower", "wave", "node",
	"submit", "admission", "flight", "wait", "dram_pass", "host", "stage",
	"exchange",
}

// String returns the span type's trace category name.
func (t SpanType) String() string {
	if int(t) < len(spanNames) {
		return spanNames[t]
	}
	return "unknown"
}

// Arg annotates an event with one integer value. Events carry at most two
// args inline — fixed-size, so recording never allocates per event.
type Arg struct {
	Key string
	Val int64
}

// Chrome trace_event phase letters.
const (
	phaseBegin   = 'B'
	phaseEnd     = 'E'
	phaseInstant = 'i'
)

// event is one recorded trace record. The struct is fixed-size (no maps,
// no variadics) so appending costs only amortised slice growth.
type event struct {
	phase byte
	typ   SpanType
	name  string
	wall  time.Duration // monotonic, since the tracer's origin
	model units.Seconds // model-clock annotation (0 when not meaningful)
	args  [2]Arg
}

// Tracer owns the event buffers and the metric registry. The zero value
// is not usable; construct with New. A nil *Tracer is the disabled state:
// every method no-ops at zero allocation cost.
type Tracer struct {
	origin  time.Time
	metrics *Metrics

	mu   sync.Mutex
	bufs []*Buf            // every buffer ever handed out, in tid order
	free map[string][]*Buf // released buffers by track, reused FIFO-ish
}

// New returns an enabled tracer. Its origin is captured now; all event
// timestamps are monotonic offsets from it.
func New() *Tracer {
	return &Tracer{
		origin:  time.Now(),
		metrics: newMetrics(),
		free:    make(map[string][]*Buf),
	}
}

// Metrics returns the tracer's metric registry (nil on a nil tracer; the
// registry's lookup methods are nil-safe in turn, so handle resolution
// composes without checks).
func (t *Tracer) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.metrics
}

// Buffer hands out an event buffer on the given track, reusing a released
// one when available. Exactly one goroutine may append to a Buf at a
// time — acquire in the goroutine that records, Release when done. The
// tracer's lock is held only here and in Release, never while recording.
func (t *Tracer) Buffer(track string) *Buf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if fr := t.free[track]; len(fr) > 0 {
		b := fr[len(fr)-1]
		t.free[track] = fr[:len(fr)-1]
		return b
	}
	b := &Buf{tr: t, tid: len(t.bufs) + 1, track: track}
	t.bufs = append(t.bufs, b)
	return b
}

// Events returns the total number of recorded events. Like the exporters,
// call it only after the traced work has completed.
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.bufs {
		n += len(b.events)
	}
	return n
}

// Spans counts the spans begun so far, by type. Like the exporters, call it
// only after the traced work has completed.
func (t *Tracer) Spans() map[SpanType]int {
	if t == nil {
		return nil
	}
	n := make(map[SpanType]int)
	for _, b := range t.snapshotBufs() {
		for i := range b.events {
			if b.events[i].phase == phaseBegin {
				n[b.events[i].typ]++
			}
		}
	}
	return n
}

// snapshotBufs copies the buffer list for the exporters.
func (t *Tracer) snapshotBufs() []*Buf {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Buf, len(t.bufs))
	copy(out, t.bufs)
	return out
}

// Buf is one goroutine's event buffer: a thread of the trace. Appends are
// unsynchronised — the acquiring goroutine owns the buffer until Release.
// All methods are nil-receiver safe (disabled tracer).
type Buf struct {
	tr     *Tracer
	tid    int
	track  string
	events []event
}

func (b *Buf) append(e event) {
	e.wall = time.Since(b.tr.origin)
	b.events = append(b.events, e)
}

// Begin opens a span. Spans on one Buf must nest: close them with End in
// LIFO order.
func (b *Buf) Begin(typ SpanType, name string) {
	if b == nil {
		return
	}
	b.append(event{phase: phaseBegin, typ: typ, name: name})
}

// End closes the innermost open span. model annotates the closing event
// with the span's model-clock duration (0 when the span has none).
func (b *Buf) End(typ SpanType, model units.Seconds) {
	if b == nil {
		return
	}
	b.append(event{phase: phaseEnd, typ: typ, model: model})
}

// End2 is End with two inline annotations.
func (b *Buf) End2(typ SpanType, model units.Seconds, a1, a2 Arg) {
	if b == nil {
		return
	}
	b.append(event{phase: phaseEnd, typ: typ, model: model, args: [2]Arg{a1, a2}})
}

// Instant records a point event.
func (b *Buf) Instant(typ SpanType, name string) {
	if b == nil {
		return
	}
	b.append(event{phase: phaseInstant, typ: typ, name: name})
}

// Instant2 is Instant with two inline annotations.
func (b *Buf) Instant2(typ SpanType, name string, a1, a2 Arg) {
	if b == nil {
		return
	}
	b.append(event{phase: phaseInstant, typ: typ, name: name, args: [2]Arg{a1, a2}})
}

// Release returns the buffer to the tracer for reuse by a later acquirer
// on the same track. The events stay recorded; reuse keeps thread counts
// (and export size) proportional to peak concurrency, not total spans.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	t := b.tr
	t.mu.Lock()
	t.free[b.track] = append(t.free[b.track], b)
	t.mu.Unlock()
}
