package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	reg := New().Metrics()
	c := reg.Counter("launches")
	if c2 := reg.Counter("launches"); c2 != c {
		t.Fatalf("counter identity not stable across lookups")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	g := reg.Gauge("inflight")
	g.Set(4)
	g.add(-1)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := New().Metrics()
	h := reg.Histogram("width")
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	// Power-of-two buckets: quantile estimates are upper bounds within 2x.
	p50 := h.Quantile(0.50)
	if p50 < 50 || p50 > 127 {
		t.Fatalf("p50 = %d, want in [50,127]", p50)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("p100 = %d, want max 100 (clamped)", got)
	}
	if got := h.Quantile(0.0); got < 1 {
		// Rank clamps to 1, so the estimate covers the smallest sample.
		t.Fatalf("p0 = %d, want >= 1", got)
	}
	h.Observe(-5) // clamps to 0
	if got := h.Quantile(0.001); got != 0 {
		t.Fatalf("lowest quantile after a 0 sample = %d, want 0", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	tr := New()
	reg := tr.Metrics()
	reg.Counter("accel.launches").Add(3)
	reg.Gauge("rt.inflight").Set(2)
	reg.Histogram("accel.wave_width").Observe(8)
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if snap.Counters["accel.launches"] != 3 {
		t.Fatalf("counter lost in snapshot: %+v", snap.Counters)
	}
	if snap.Gauges["rt.inflight"] != 2 {
		t.Fatalf("gauge lost in snapshot: %+v", snap.Gauges)
	}
	hs := snap.Histograms["accel.wave_width"]
	if hs.Count != 1 || hs.Max != 8 {
		t.Fatalf("histogram lost in snapshot: %+v", hs)
	}
	if hs.Mean != 8 {
		t.Fatalf("histogram mean = %v, want 8", hs.Mean)
	}
}
