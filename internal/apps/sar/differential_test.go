package sar

import (
	"math"
	"testing"

	"mealib/internal/mealibrt"
)

func newPipelineWorkers(t *testing.T, p Params, workers int) *Pipeline {
	t.Helper()
	cfg := mealibrt.DefaultConfig()
	cfg.Accel.Workers = workers
	rt, err := mealibrt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(p, rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.LoadRaw(3); err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestDifferentialSARChained runs the chained image formation serially and
// with a worker pool: the per-row LOOP iterations are independent, so the
// parallel run must produce a bit-identical image and an identical report.
func TestDifferentialSARChained(t *testing.T) {
	p := Square(32)
	serial := newPipelineWorkers(t, p, 1)
	parallel := newPipelineWorkers(t, p, 4)

	sInv, err := serial.FormImageChained()
	if err != nil {
		t.Fatal(err)
	}
	pInv, err := parallel.FormImageChained()
	if err != nil {
		t.Fatal(err)
	}
	sr, pr := sInv.Report, pInv.Report
	if math.Float64bits(float64(sr.Time)) != math.Float64bits(float64(pr.Time)) ||
		math.Float64bits(float64(sr.Energy)) != math.Float64bits(float64(pr.Energy)) {
		t.Errorf("reports differ: serial %v/%v, parallel %v/%v", sr.Time, sr.Energy, pr.Time, pr.Energy)
	}
	if sr.Comps != pr.Comps || sr.NoCBytes != pr.NoCBytes || sr.LMSpillBytes != pr.LMSpillBytes {
		t.Errorf("comps/NoC/spill differ: serial %d/%d/%d, parallel %d/%d/%d",
			sr.Comps, sr.NoCBytes, sr.LMSpillBytes, pr.Comps, pr.NoCBytes, pr.LMSpillBytes)
	}

	sImg, err := serial.Image()
	if err != nil {
		t.Fatal(err)
	}
	pImg, err := parallel.Image()
	if err != nil {
		t.Fatal(err)
	}
	if len(sImg) != len(pImg) {
		t.Fatalf("image lengths differ: %d vs %d", len(sImg), len(pImg))
	}
	for i := range sImg {
		if math.Float32bits(real(sImg[i])) != math.Float32bits(real(pImg[i])) ||
			math.Float32bits(imag(sImg[i])) != math.Float32bits(imag(pImg[i])) {
			t.Fatalf("image[%d]: serial %v, parallel %v", i, sImg[i], pImg[i])
		}
	}
}

// TestDifferentialSARSeparate covers the unchained two-descriptor variant.
func TestDifferentialSARSeparate(t *testing.T) {
	p := Square(32)
	serial := newPipelineWorkers(t, p, 1)
	parallel := newPipelineWorkers(t, p, 4)

	if _, _, err := serial.FormImageSeparate(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := parallel.FormImageSeparate(); err != nil {
		t.Fatal(err)
	}
	sImg, err := serial.Image()
	if err != nil {
		t.Fatal(err)
	}
	pImg, err := parallel.Image()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sImg {
		if math.Float32bits(real(sImg[i])) != math.Float32bits(real(pImg[i])) ||
			math.Float32bits(imag(sImg[i])) != math.Float32bits(imag(pImg[i])) {
			t.Fatalf("image[%d]: serial %v, parallel %v", i, sImg[i], pImg[i])
		}
	}
}
