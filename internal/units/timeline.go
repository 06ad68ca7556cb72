package units

// Timeline is one serially reused resource on the model clock: a link port,
// a staging link, an accelerator. A reservation starts once the request is
// ready and the resource is free, and holds the resource for its duration.
// The zero value is a resource free from time zero.
type Timeline struct {
	free, busy Seconds
}

// Reserve books dur (non-negative) starting at max(ready, Free()) and
// returns the reservation's start and end.
func (t *Timeline) Reserve(ready, dur Seconds) (start, end Seconds) {
	start = max(ready, t.free)
	end = start + dur
	t.free = end
	t.busy += dur
	return start, end
}

// Free returns the time at which the resource next becomes available: the
// end of the latest reservation.
func (t *Timeline) Free() Seconds { return t.free }

// Busy returns the summed duration of every reservation, in booking order.
func (t *Timeline) Busy() Seconds { return t.busy }
