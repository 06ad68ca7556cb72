// Package cpu models the central host processor that MEALib keeps for
// compute-bounded work (paper §5.5: cherk and ctrsm run on the multicore
// while memory-bounded functions go to the accelerators) and that executes
// the whole application in the Haswell-only baseline.
package cpu

import (
	"fmt"

	"mealib/internal/cache"
	"mealib/internal/units"
)

// Host is a multicore processor model.
type Host struct {
	Name  string
	Cores int
	Freq  units.Hertz
	// Peak is the aggregate single-precision FLOP rate.
	Peak units.FlopsPerSec
	// ComputeEff is the fraction of peak sustained on compute-bounded,
	// cache-blocked kernels (MKL GEMM-class code).
	ComputeEff float64
	// MemBW is the achievable memory bandwidth.
	MemBW units.BytesPerSec
	// ActivePower is package+DRAM power under load; IdlePower while the
	// host waits for accelerators (clock-gated, memory blocked by the link
	// controller).
	ActivePower units.Watts
	IdlePower   units.Watts
	// Cache is the hierarchy flushed before accelerator invocations.
	Cache *cache.Hierarchy
}

// Haswell returns the i7-4770K host model.
func Haswell() *Host {
	return &Host{
		Name:        "Haswell i7-4770K",
		Cores:       4,
		Freq:        3.5 * units.GHz,
		Peak:        units.GFlops(112),
		ComputeEff:  0.82, // MKL CHERK/CTRSM-class utilisation
		MemBW:       units.GBps(25.6),
		ActivePower: 62,
		IdlePower:   16,
		Cache:       cache.Haswell(),
	}
}

// Validate reports configuration errors.
func (h *Host) Validate() error {
	switch {
	case h.Cores <= 0 || h.Freq <= 0 || h.Peak <= 0 || h.MemBW <= 0:
		return fmt.Errorf("cpu %s: non-positive rates", h.Name)
	case h.ComputeEff <= 0 || h.ComputeEff > 1:
		return fmt.Errorf("cpu %s: compute efficiency %v out of (0,1]", h.Name, h.ComputeEff)
	case h.Cache == nil:
		return fmt.Errorf("cpu %s: missing cache hierarchy", h.Name)
	}
	return nil
}

// Result is a modelled host execution.
type Result struct {
	Time   units.Seconds
	Energy units.Joules
}

// run models a kernel with the given arithmetic and traffic: the classic
// roofline with the host's sustained compute efficiency.
func (h *Host) run(flops units.Flops, bytes units.Bytes) Result {
	compT := units.Seconds(float64(flops) / (float64(h.Peak) * h.ComputeEff))
	memT := h.MemBW.Time(bytes)
	t := compT
	if memT > t {
		t = memT
	}
	return Result{Time: t, Energy: h.ActivePower.Energy(t)}
}

// Wait models the host idling for d while accelerators run.
func (h *Host) Wait(d units.Seconds) Result {
	return Result{Time: d, Energy: h.IdlePower.Energy(d)}
}
