// Package units provides the physical quantities used throughout the MEALib
// simulator: sizes, frequencies, times, energies, powers and rates. All
// quantities are plain float64/int64 named types so they compose with
// arithmetic, but the named types keep module interfaces self-documenting.
package units

import (
	"fmt"
	"math"
)

// Bytes is a size in bytes.
type Bytes int64

// Common byte sizes.
const (
	KiB Bytes = 1 << 10
	MiB Bytes = 1 << 20
	GiB Bytes = 1 << 30
)

// String renders the size with a binary-prefix unit.
func (b Bytes) String() string {
	switch {
	case b >= GiB:
		if b%GiB == 0 {
			return fmt.Sprintf("%dGiB", b/GiB)
		}
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
	case b >= MiB:
		if b%MiB == 0 {
			return fmt.Sprintf("%dMiB", b/MiB)
		}
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
	case b >= KiB:
		if b%KiB == 0 {
			return fmt.Sprintf("%dKiB", b/KiB)
		}
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Hertz is a frequency in Hz.
type Hertz float64

// Common frequencies.
const (
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// String renders the frequency in GHz or MHz.
func (h Hertz) String() string {
	if h >= GHz {
		return fmt.Sprintf("%.2fGHz", float64(h)/float64(GHz))
	}
	return fmt.Sprintf("%.1fMHz", float64(h)/float64(MHz))
}

// period returns the duration of one cycle at this frequency.
func (h Hertz) period() Seconds {
	if h <= 0 {
		return 0
	}
	return Seconds(1 / float64(h))
}

// Seconds is a duration in seconds.
type Seconds float64

// Common durations.
const (
	Nanosecond  Seconds = 1e-9
	Microsecond Seconds = 1e-6
	Millisecond Seconds = 1e-3
)

// String renders the duration with an SI prefix.
func (s Seconds) String() string {
	switch {
	case s == 0:
		return "0s"
	case s < Microsecond:
		return fmt.Sprintf("%.2fns", float64(s)/1e-9)
	case s < Millisecond:
		return fmt.Sprintf("%.2fus", float64(s)/1e-6)
	case s < 1:
		return fmt.Sprintf("%.2fms", float64(s)/1e-3)
	default:
		return fmt.Sprintf("%.3fs", float64(s))
	}
}

// Joules is an energy in joules.
type Joules float64

// String renders the energy with an SI prefix.
func (j Joules) String() string {
	switch {
	case j == 0:
		return "0J"
	case j < 1e-6:
		return fmt.Sprintf("%.2fnJ", float64(j)/1e-9)
	case j < 1e-3:
		return fmt.Sprintf("%.2fuJ", float64(j)/1e-6)
	case j < 1:
		return fmt.Sprintf("%.2fmJ", float64(j)/1e-3)
	default:
		return fmt.Sprintf("%.3fJ", float64(j))
	}
}

// Watts is a power in watts.
type Watts float64

// String renders the power in watts.
func (w Watts) String() string {
	if w < 1 {
		return fmt.Sprintf("%.3fW", float64(w))
	}
	return fmt.Sprintf("%.2fW", float64(w))
}

// Energy returns the energy dissipated at this power for duration t.
func (w Watts) Energy(t Seconds) Joules { return Joules(float64(w) * float64(t)) }

// BytesPerSec is a bandwidth.
type BytesPerSec float64

// GBps constructs a bandwidth from a GB/s figure (decimal gigabytes, as
// memory vendors and the paper quote them).
func GBps(v float64) BytesPerSec { return BytesPerSec(v * 1e9) }

// GBs reports the bandwidth in decimal GB/s.
func (b BytesPerSec) GBs() float64 { return float64(b) / 1e9 }

// String renders the bandwidth in GB/s.
func (b BytesPerSec) String() string { return fmt.Sprintf("%.1fGB/s", b.GBs()) }

// Time returns how long moving n bytes takes at this bandwidth.
func (b BytesPerSec) Time(n Bytes) Seconds {
	if b <= 0 {
		return 0
	}
	return Seconds(float64(n) / float64(b))
}

// Flops is a count of floating point operations.
type Flops float64

// FlopsPerSec is a compute rate.
type FlopsPerSec float64

// GFlops constructs a rate from a GFLOPS figure.
func GFlops(v float64) FlopsPerSec { return FlopsPerSec(v * 1e9) }

// G reports the rate in GFLOPS.
func (f FlopsPerSec) G() float64 { return float64(f) / 1e9 }

// String renders the rate in GFLOPS.
func (f FlopsPerSec) String() string { return fmt.Sprintf("%.2fGFLOPS", f.G()) }

// EDP returns the energy-delay product (J*s), the energy-efficiency metric
// used for STAP in the paper (Gonzalez & Horowitz).
func EDP(e Joules, t Seconds) float64 { return float64(e) * float64(t) }

// GFlopsPerWatt returns the energy-efficiency metric of Figures 10/11.
func GFlopsPerWatt(rate FlopsPerSec, p Watts) float64 {
	if p <= 0 {
		return 0
	}
	return rate.G() / float64(p)
}

// CloseTo reports whether two model outputs agree to within an absolute
// or relative tolerance of 1e-9. Energy, latency and bandwidth figures
// come out of chains of float64 arithmetic, so tests compare them with
// CloseTo instead of ==/!= (which mealint's floateq analyzer rejects).
func CloseTo(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9 || d <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
