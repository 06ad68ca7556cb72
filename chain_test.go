package mealib

import (
	"math/rand"
	"testing"
)

// TestChainBuilderVerifies: Chain accepts a valid producer→consumer pipeline
// and rejects a disconnected one at build time.
func TestChainBuilderVerifies(t *testing.T) {
	s := newSystem(t)
	n := 16
	src, _ := Alloc[complex64](s, n*n)
	dst, _ := Alloc[complex64](s, n*n)
	other, _ := Alloc[complex64](s, n*n)
	rng := rand.New(rand.NewSource(7))
	img := make([]complex64, n*n)
	for i := range img {
		img[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	_ = src.Set(img)

	// Transpose writes dst, FFT consumes dst whole: a legal chain.
	run, err := s.NewPlan().
		Chain(TransposeC64Comp(n, n, src, dst), FFTComp(n, n, dst, false, nil)).
		Run()
	if err != nil {
		t.Fatal(err)
	}
	if run.Comps != 2 {
		t.Errorf("comps = %d, want 2", run.Comps)
	}

	// The FFT reads a buffer the transpose never wrote: rejected before any
	// descriptor is built.
	if _, err := s.NewPlan().
		Chain(TransposeC64Comp(n, n, src, dst), FFTComp(n, n, other, false, nil)).
		Run(); err == nil {
		t.Error("disconnected chain accepted")
	}
}

// TestChainLoopDifferential: a ChainLoop plan and the same pipeline on a
// fusion-disabled system produce bit-identical buffers — only the modelled
// cost differs.
func TestChainLoopDifferential(t *testing.T) {
	const nin, n, iters = 300, 512, 8
	rng := rand.New(rand.NewSource(8))
	raw := make([]complex64, nin*iters)
	for i := range raw {
		raw[i] = complex(float32(rng.NormFloat64()), float32(rng.NormFloat64()))
	}
	shape := func(s *System) ([]complex64, error) {
		src, err := Alloc[complex64](s, nin*iters)
		if err != nil {
			return nil, err
		}
		dst, err := Alloc[complex64](s, n*iters)
		if err != nil {
			return nil, err
		}
		if err := src.Set(raw); err != nil {
			return nil, err
		}
		if _, err := s.NewPlan().ChainLoop([]int{iters},
			ResampleC64Comp(nin, n, src, dst, true, Strides{nin}, Strides{n}),
			FFTComp(n, 1, dst, false, Strides{n}),
		).Run(); err != nil {
			return nil, err
		}
		return dst.All()
	}
	fused := newSystem(t)
	acc := AcceleratorConfig()
	acc.NoFusion = true
	plain, err := New(WithAccelerator(acc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := shape(fused)
	if err != nil {
		t.Fatal(err)
	}
	b, err := shape(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fused and unfused systems differ at %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestChainLoopRejectsStrideMismatch: handoff bases that line up at
// iteration zero but drift apart across the loop must be rejected.
func TestChainLoopRejectsStrideMismatch(t *testing.T) {
	s := newSystem(t)
	const nin, n, iters = 300, 512, 4
	src, _ := Alloc[complex64](s, nin*iters)
	dst, _ := Alloc[complex64](s, 2*n*iters)
	if _, err := s.NewPlan().ChainLoop([]int{iters},
		ResampleC64Comp(nin, n, src, dst, false, Strides{nin}, Strides{n}),
		FFTComp(n, 1, dst, false, Strides{2 * n}),
	).Run(); err == nil {
		t.Error("stride-mismatched chain loop accepted")
	}
}
