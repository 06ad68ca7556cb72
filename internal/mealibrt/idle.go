package mealibrt

import (
	"slices"

	"mealib/internal/units"
)

// Host idle-energy accounting for overlapping flights (ROADMAP item:
// flight-aware energy). While any descriptor is in flight the link
// controller blocks the host's DRAM accesses, so the host sits idle and
// burns IdlePower — but it is one host: two overlapping flights share the
// same idle window, they don't each idle the host for their full span.
// idleWindows unions the billed model-time windows so each instant of
// host idleness is billed exactly once, to the first flight that retires
// over it. Serial flights occupy disjoint windows and keep billing their
// full span, so single-launch accounting is unchanged.

// idleIvl is one billed window [start, end) on the model timeline.
type idleIvl struct {
	start, end units.Seconds
}

// idleWindows is a sorted, disjoint set of billed windows. Adjacent and
// overlapping windows coalesce on insert, so the set stays proportional
// to the number of gaps in the launch history (typically one element).
type idleWindows struct {
	ivls []idleIvl
}

// add bills the window [start, end) and returns the portion of its
// duration not already billed to an earlier flight.
func (w *idleWindows) add(start, end units.Seconds) units.Seconds {
	if end <= start {
		return 0
	}
	gained := end - start
	// ivls[lo:hi] are the windows that overlap or touch [start, end): they
	// and the new window collapse into one, in place.
	lo := 0
	for lo < len(w.ivls) && w.ivls[lo].end < start {
		lo++
	}
	merged := idleIvl{start: start, end: end}
	hi := lo
	for ; hi < len(w.ivls) && w.ivls[hi].start <= end; hi++ {
		iv := w.ivls[hi]
		if ov := min(iv.end, end) - max(iv.start, start); ov > 0 {
			gained -= ov
		}
		merged.start = min(merged.start, iv.start)
		merged.end = max(merged.end, iv.end)
	}
	w.ivls = slices.Replace(w.ivls, lo, hi, merged)
	if gained < 0 {
		gained = 0
	}
	return gained
}
