package telemetry

import (
	"strings"
	"sync"
	"testing"
)

// TestNilTracerNoOps: every operation of the disabled state must be
// callable on nil receivers without panicking or observable effect.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	b := tr.Buffer(TrackAccel)
	if b != nil {
		t.Fatalf("nil tracer handed out a buffer")
	}
	b.Begin(SpanLaunch, "x")
	b.End(SpanLaunch, 0)
	b.End2(SpanLaunch, 0, Arg{Key: "a", Val: 1}, Arg{})
	b.Instant(SpanSubmit, "x")
	b.instant2(SpanSubmit, "x", Arg{}, Arg{})
	b.Release()
	if tr.Events() != 0 {
		t.Fatalf("nil tracer reports events")
	}
	reg := tr.Metrics()
	if reg != nil {
		t.Fatalf("nil tracer has a registry")
	}
	reg.Counter("c").Add(1)
	reg.Gauge("g").Set(1)
	reg.Histogram("h").Observe(1)
	if got := reg.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter holds %d", got)
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Fatalf("nil-tracer trace invalid: %v", err)
	}
	if !strings.Contains(tr.Summary(), "disabled") {
		t.Fatalf("nil summary: %q", tr.Summary())
	}
}

// TestDisabledTracerZeroAllocs pins the overhead contract: the full call
// sequence an instrumented hot path performs against a disabled (nil)
// tracer must not allocate.
func TestDisabledTracerZeroAllocs(t *testing.T) {
	var tr *Tracer
	reg := tr.Metrics()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		b := tr.Buffer(TrackRuntime)
		b.Begin(SpanSubmit, "submit")
		b.Instant(SpanSubmit, "doorbell")
		b.End2(SpanSubmit, 0, Arg{Key: "inflight", Val: 1}, Arg{})
		b.Release()
		c.Add(1)
		g.Set(3)
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("disabled-tracer path allocates %.1f/op, want 0", allocs)
	}
}

// TestBufferReuse: releasing returns the buffer to its track's free list;
// the next acquisition on that track reuses it instead of growing the
// thread count.
func TestBufferReuse(t *testing.T) {
	tr := New()
	b1 := tr.Buffer(TrackAccel)
	b1.Begin(SpanLaunch, "a")
	b1.End(SpanLaunch, 0)
	b1.Release()
	b2 := tr.Buffer(TrackAccel)
	if b2 != b1 {
		t.Fatalf("released buffer not reused")
	}
	other := tr.Buffer(TrackRuntime)
	if other == b1 {
		t.Fatalf("buffer crossed tracks")
	}
	if got := len(tr.snapshotBufs()); got != 2 {
		t.Fatalf("tracer tracks %d buffers, want 2", got)
	}
}

// TestConcurrentBuffers drives acquisition/recording/release from many
// goroutines; run under -race this proves the ownership discipline.
func TestConcurrentBuffers(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				b := tr.Buffer(TrackAccel)
				b.Begin(SpanNode, "n")
				b.End(SpanNode, 0)
				b.Release()
			}
		}()
	}
	wg.Wait()
	if got := tr.Events(); got != 16*50*2 {
		t.Fatalf("recorded %d events, want %d", got, 16*50*2)
	}
}
