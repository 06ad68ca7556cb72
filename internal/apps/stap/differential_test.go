package stap

import (
	"math"
	"testing"

	"mealib/internal/mealibrt"
)

// newTinyPipelineWorkers builds the tiny pipeline on a runtime with an
// explicit accelerator worker-pool size.
func newTinyPipelineWorkers(t *testing.T, workers int) *Pipeline {
	t.Helper()
	cfg := mealibrt.DefaultConfig()
	cfg.Accel.Workers = workers
	rt, err := mealibrt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(tinyParams(), rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.LoadDatacube(7); err != nil {
		t.Fatal(err)
	}
	return pl
}

func requireC64BitIdentical(t *testing.T, label string, serial, parallel []complex64) {
	t.Helper()
	if len(serial) != len(parallel) {
		t.Fatalf("%s: lengths differ: %d vs %d", label, len(serial), len(parallel))
	}
	for i := range serial {
		if math.Float32bits(real(serial[i])) != math.Float32bits(real(parallel[i])) ||
			math.Float32bits(imag(serial[i])) != math.Float32bits(imag(parallel[i])) {
			t.Fatalf("%s[%d]: serial %v, parallel %v", label, i, serial[i], parallel[i])
		}
	}
}

func requireInvocationsIdentical(t *testing.T, serial, parallel *mealibrt.Invocation) {
	t.Helper()
	sr, pr := serial.Report, parallel.Report
	if math.Float64bits(float64(sr.Time)) != math.Float64bits(float64(pr.Time)) ||
		math.Float64bits(float64(sr.Energy)) != math.Float64bits(float64(pr.Energy)) {
		t.Errorf("reports differ: serial %v/%v, parallel %v/%v", sr.Time, sr.Energy, pr.Time, pr.Energy)
	}
	if sr.Comps != pr.Comps || sr.NoCBytes != pr.NoCBytes {
		t.Errorf("comps/NoC differ: serial %d/%d, parallel %d/%d", sr.Comps, sr.NoCBytes, pr.Comps, pr.NoCBytes)
	}
}

// TestDifferentialSTAPPipeline runs the whole STAP descriptor pipeline
// serially (Workers=1) and with a worker pool, and requires bit-identical
// data products and identical reports at every stage.
func TestDifferentialSTAPPipeline(t *testing.T) {
	serial := newTinyPipelineWorkers(t, 1)
	parallel := newTinyPipelineWorkers(t, 4)

	sInv, err := serial.DopplerProcess()
	if err != nil {
		t.Fatal(err)
	}
	pInv, err := parallel.DopplerProcess()
	if err != nil {
		t.Fatal(err)
	}
	requireInvocationsIdentical(t, sInv, pInv)
	sDop, err := serial.Doppler()
	if err != nil {
		t.Fatal(err)
	}
	pDop, err := parallel.Doppler()
	if err != nil {
		t.Fatal(err)
	}
	requireC64BitIdentical(t, "doppler", sDop, pDop)

	if err := serial.SolveWeights(); err != nil {
		t.Fatal(err)
	}
	if err := parallel.SolveWeights(); err != nil {
		t.Fatal(err)
	}
	sW, err := serial.Weights()
	if err != nil {
		t.Fatal(err)
	}
	pW, err := parallel.Weights()
	if err != nil {
		t.Fatal(err)
	}
	requireC64BitIdentical(t, "weights", sW, pW)

	sInv, err = serial.InnerProducts()
	if err != nil {
		t.Fatal(err)
	}
	pInv, err = parallel.InnerProducts()
	if err != nil {
		t.Fatal(err)
	}
	requireInvocationsIdentical(t, sInv, pInv)
	sProds, err := serial.Prods()
	if err != nil {
		t.Fatal(err)
	}
	pProds, err := parallel.Prods()
	if err != nil {
		t.Fatal(err)
	}
	requireC64BitIdentical(t, "prods", sProds, pProds)
}
