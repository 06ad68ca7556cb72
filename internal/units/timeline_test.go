package units

import (
	"math"
	"math/rand"
	"testing"
)

// TestTimelineReservations books seeded random reservations on a few
// timelines and holds each to the reservation laws: it starts no earlier
// than it is ready and no earlier than the previous one on its timeline
// ends (so no two overlap), Free never decreases, and Busy is the in-order
// sum of the durations, bit for bit.
func TestTimelineReservations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var lines [3]Timeline
	var sums [3]Seconds
	for i := 0; i < 10000; i++ {
		k := rng.Intn(len(lines))
		tl := &lines[k]
		ready := Seconds(rng.Float64()) * Seconds(i) * Microsecond
		dur := Seconds(rng.ExpFloat64()) * Microsecond
		if rng.Intn(8) == 0 {
			dur = 0
		}
		prevFree := tl.Free()
		start, end := tl.Reserve(ready, dur)
		switch {
		case start < ready:
			t.Fatalf("reservation %d on %d starts at %v, before it is ready at %v", i, k, start, ready)
		case start < prevFree:
			t.Fatalf("reservation %d on %d starts at %v, inside the previous one ending at %v", i, k, start, prevFree)
		case math.Float64bits(float64(end)) != math.Float64bits(float64(start+dur)):
			t.Fatalf("reservation %d on %d: [%v, %v) does not last %v", i, k, start, end, dur)
		case tl.Free() < prevFree:
			t.Fatalf("reservation %d on %d: Free went back from %v to %v", i, k, prevFree, tl.Free())
		}
		sums[k] += dur
		if math.Float64bits(float64(tl.Busy())) != math.Float64bits(float64(sums[k])) {
			t.Fatalf("reservation %d on %d: Busy %v, in-order sum %v", i, k, tl.Busy(), sums[k])
		}
	}
}
