package mealib

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mealib/internal/telemetry"
)

// A traced Saxpy through the public facade must produce a valid Chrome
// trace, a non-empty metrics snapshot, and a summary.
func TestWithTelemetry(t *testing.T) {
	tel := NewTelemetry()
	s, err := New(WithTelemetry(tel))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	x, err := Alloc[float32](s, n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Alloc[float32](s, n)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 5)
		ys[i] = 1
	}
	if err := x.Set(xs); err != nil {
		t.Fatal(err)
	}
	if err := y.Set(ys); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Saxpy(2, x, y); err != nil {
		t.Fatal(err)
	}

	var trace bytes.Buffer
	if err := tel.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	chk, err := telemetry.ValidateChromeTrace(trace.Bytes())
	if err != nil {
		t.Fatalf("facade trace invalid: %v", err)
	}
	if chk.Spans["launch"] == 0 || chk.Spans["submit"] == 0 {
		t.Errorf("expected launch and submit spans, got %v", chk.Spans)
	}

	var metrics bytes.Buffer
	if err := tel.WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(metrics.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if snap.Counters["accel.launches"] != 1 || snap.Counters["rt.submits"] != 1 {
		t.Errorf("counters = %v, want one launch and one submit", snap.Counters)
	}
	if !strings.Contains(tel.Summary(), "rt.submits") {
		t.Error("summary missing rt.submits")
	}
}

// A system without WithTelemetry must work identically and keep a nil
// tracer all the way down.
func TestSystemWithoutTelemetryUntraced(t *testing.T) {
	s := newSystem(t)
	x, err := Alloc[float32](s, 16)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Alloc[float32](s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Set(make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	if err := y.Set(make([]float32, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Saxpy(1, x, y); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Invocations != 1 {
		t.Errorf("invocations = %d, want 1", st.Invocations)
	}
}
