// Package platform models the five evaluation platforms of the paper's
// Table 3: the Intel Haswell i7-4770K running MKL (the baseline), the Xeon
// Phi 5110P, the Processor-Side Accelerated System (PSAS), the 2D
// Memory-Side Accelerated System (MSAS, NDA-style), and MEALib itself.
//
// Each platform is a roofline: an operation's runtime is the larger of its
// compute time at the platform's peak FLOP rate and its memory time at the
// platform's achieved bandwidth for that operation. Peak rates and
// bandwidths come straight from Table 3; the per-operation achieved-
// bandwidth efficiencies and powers are the calibrated free parameters
// documented in calibration.go.
package platform

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/units"
)

// Workload is the platform-independent description of one library-call
// workload: its arithmetic and its compulsory (cold-cache) memory traffic.
type Workload struct {
	Flops units.Flops
	Bytes units.Bytes
}

// Result is the modelled outcome of running a workload.
type Result struct {
	Time   units.Seconds
	Energy units.Joules
}

// rate returns the achieved compute rate.
func (r Result) rate(w Workload) units.FlopsPerSec {
	if r.Time <= 0 {
		return 0
	}
	return units.FlopsPerSec(float64(w.Flops) / float64(r.Time))
}

// throughput returns the achieved data rate (how RESHP, which has no flops,
// is reported in the paper).
func (r Result) throughput(w Workload) units.BytesPerSec {
	if r.Time <= 0 {
		return 0
	}
	return units.BytesPerSec(float64(w.Bytes) / float64(r.Time))
}

// Platform is one modelled machine.
type Platform struct {
	Name  string
	Cores int
	Freq  units.Hertz
	// Peak is the aggregate single-precision FLOP rate.
	Peak units.FlopsPerSec
	// MemBW is the peak memory bandwidth (Table 3).
	MemBW units.BytesPerSec
	// Eff is the achieved fraction of MemBW on each operation's useful
	// bytes. Values above 1 mean the platform moves fewer bytes than the
	// nominal single-pass count (larger on-chip staging); see calibration.go.
	Eff map[descriptor.OpCode]float64
	// Power is the operating power (package + memory) per operation.
	Power map[descriptor.OpCode]units.Watts
}

// validate reports configuration errors.
func (p *Platform) validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("platform: empty name")
	case p.Peak <= 0 || p.MemBW <= 0:
		return fmt.Errorf("platform %s: non-positive peak rates", p.Name)
	case len(p.Eff) == 0 || len(p.Power) == 0:
		return fmt.Errorf("platform %s: missing calibration tables", p.Name)
	}
	for op, e := range p.Eff {
		if e <= 0 {
			return fmt.Errorf("platform %s: non-positive efficiency for %v", p.Name, op)
		}
	}
	for op, w := range p.Power {
		if w <= 0 {
			return fmt.Errorf("platform %s: non-positive power for %v", p.Name, op)
		}
	}
	return nil
}

// Run models one operation.
func (p *Platform) Run(op descriptor.OpCode, w Workload) (Result, error) {
	eff, ok := p.Eff[op]
	if !ok {
		return Result{}, fmt.Errorf("platform %s: no efficiency calibration for %v", p.Name, op)
	}
	pw, ok := p.Power[op]
	if !ok {
		return Result{}, fmt.Errorf("platform %s: no power calibration for %v", p.Name, op)
	}
	memT := units.Seconds(float64(w.Bytes) / (float64(p.MemBW) * eff))
	compT := units.Seconds(float64(w.Flops) / float64(p.Peak))
	t := memT
	if compT > t {
		t = compT
	}
	return Result{Time: t, Energy: pw.Energy(t)}, nil
}

// All returns the five platforms in the paper's presentation order.
func All() []*Platform {
	return []*Platform{Haswell(), XeonPhi(), PSAS(), MSAS(), MEALib()}
}
