package mealibrt

import (
	"mealib/internal/accel"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Wave-granularity pipelining (Config.WavePipeline). Without it, a launch
// that conflicts with an in-flight descriptor waits in admission until the
// whole producer retires, even when the data it needs is written by the
// producer's first wave. With it, conflicting launches are admitted
// immediately and every flight carries a flightGate implementing
// accel.WaveHooks: each of the consumer's waves blocks only until every
// older conflicting flight has finished the last wave touching the
// consumer wave's spans. A producer's tail waves therefore drain while the
// consumer's head waves execute — the whole-launch serialization collapses
// to a true wavefront pipeline, which is what keeps the tiles busy under a
// loaded multi-tenant server.
//
// Correctness: a gate only ever waits on flights admitted before it
// (admission-sequence order), so the wait graph is acyclic and deadlock-
// free; a wave is released exactly when no earlier flight will touch its
// spans again, so the bytes it reads are final and the bytes it writes
// cannot be observed or overwritten by an earlier flight — memory effects
// are identical to whole-launch serialization.
//
// Model time: physically the waves interleave on the wall clock, but the
// model timeline must show the stalls. Each gate accumulates shift, the
// total model time its waves spent waiting: when wave w may only start at
// model time need but the flight's own timeline has reached
// start+shift+elapsed, the difference joins shift. The flight's window on
// the model timeline is [start, start+shift+Report.Time), which retire uses
// for the clock frontier and idle-energy billing; Report.Time itself stays
// pure device time.

// flightGate gates one launch's waves behind its older conflicting flights.
// All fields are guarded by the runtime's mu; blocking uses the runtime's
// cond, which WaveDone and finish broadcast.
type flightGate struct {
	r *Runtime
	l *Launch
	// olders are the gates of the conflicting flights that were in flight
	// when this one was admitted. Gates outlive retirement, so a producer
	// that drains before the consumer's wave asks still contributes its
	// release time to the consumer's model-time shift.
	olders []*flightGate
	// waves is the per-wave footprint announced so far by Lowered, one
	// window at a time. While more is set the launch has waves still to
	// announce (none are, before it lowers its first window), and those
	// carry the flight's whole verifier footprint.
	waves [][]span.Dir
	more  bool
	// done counts completed waves; doneAt[w] is the model time wave w
	// completed at (start + shift + cumulative device time).
	done   int
	doneAt []units.Seconds
	// shift is the accumulated model-time stall; elapsed is the device time
	// through the last completed wave.
	shift   units.Seconds
	elapsed units.Seconds
	// retired marks the flight done (or backed out) and endAt its model end;
	// finish alone writes them.
	retired bool
	endAt   units.Seconds
}

// flightSpans converts a launch's verifier-level footprint to wave spans
// (the conservative stand-in when a wave's own footprint is unresolvable).
func flightSpans(l *Launch) []span.Dir {
	out := make([]span.Dir, 0, len(l.p.reads)+len(l.p.admWrites))
	for _, s := range l.p.reads {
		out = append(out, span.Dir{Span: s})
	}
	for _, s := range l.p.admWrites {
		out = append(out, span.Dir{Span: s, Write: true})
	}
	return out
}

// Lowered records the per-wave footprint of the launch's next window
// (accel.WaveHooks).
func (g *flightGate) Lowered(waves [][]span.Dir, more bool) {
	g.r.mu.Lock()
	g.waves = append(g.waves, waves...)
	g.doneAt = append(g.doneAt, make([]units.Seconds, len(waves))...)
	g.more = more
	g.r.mu.Unlock()
}

// waveFootprintLocked returns wave w's directional spans, degrading to the
// whole flight's footprint when the wave is unresolvable.
func (g *flightGate) waveFootprintLocked(w int) []span.Dir {
	if w < len(g.waves) && g.waves[w] != nil {
		return g.waves[w]
	}
	return flightSpans(g.l)
}

// releaseTimeLocked returns the model time at which og stops constraining
// spans, or ok=false while og has conflicting waves still to run (the
// caller must wait and re-ask). Called with mu held.
func (og *flightGate) releaseTimeLocked(spans []span.Dir) (units.Seconds, bool) {
	k := len(og.waves) // last wave of og whose footprint conflicts with spans
	if !og.more || !span.Overlap(spans, flightSpans(og.l)) {
		// No wave still to be announced conflicts: look among those that were.
		for k--; k >= 0; k-- {
			ws := og.waves[k]
			if ws == nil {
				ws = flightSpans(og.l)
			}
			if span.Overlap(spans, ws) {
				break
			}
		}
	}
	if k < 0 {
		return 0, true
	}
	if og.done > k {
		return og.doneAt[k], true
	}
	if og.retired {
		// Failed or backed-out flight: nothing more will run.
		return og.endAt, true
	}
	return 0, false
}

// WaveStart blocks wave w until every older conflicting flight has released
// the wave's spans, then folds the wait into the flight's model-time shift
// (accel.WaveHooks; called from the scheduler goroutine).
func (g *flightGate) WaveStart(w int) {
	if len(g.olders) == 0 {
		return
	}
	r := g.r
	r.mu.Lock()
	spans := g.waveFootprintLocked(w)
	var need units.Seconds
	for _, og := range g.olders {
		for {
			t, ok := og.releaseTimeLocked(spans)
			if ok {
				if t > need {
					need = t
				}
				break
			}
			r.cond.Wait()
		}
	}
	if have := g.l.start + g.shift + g.elapsed; need > have {
		g.shift += need - have
	}
	r.mu.Unlock()
}

// WaveDone places wave w's completion on the model timeline and wakes
// younger gates (accel.WaveHooks).
func (g *flightGate) WaveDone(w int, elapsed units.Seconds) {
	r := g.r
	r.mu.Lock()
	g.elapsed = elapsed
	g.done = w + 1
	if w < len(g.doneAt) {
		g.doneAt[w] = g.l.start + g.shift + elapsed
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

var _ accel.WaveHooks = (*flightGate)(nil)

// olderWritesLocked collects the write spans of every launch admitted before
// self and still in flight, for the optimistic launch-time verification under
// pipelining: a consumer admitted mid-producer reads spans the producer has
// not retired into the initialized set yet, but is wave-gated until they are
// written. Launches admitted after self do not count — a launch is verified in
// Start, which may run after younger launches were accepted.
func (r *Runtime) olderWritesLocked(self *Launch) []span.Span {
	var out []span.Span
	for _, l := range r.launches {
		if l.seq != 0 && l.seq < self.seq {
			out = append(out, l.p.admWrites...)
		}
	}
	return out
}
