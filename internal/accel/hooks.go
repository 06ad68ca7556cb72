package accel

import (
	"mealib/internal/span"
	"mealib/internal/units"
)

// Wave-granularity execution hooks. A launch normally runs opaque to the
// runtime: admission serialises whole conflicting descriptors because the
// only progress signal is completion. WaveHooks opens the wavefront
// scheduler up to an external observer at wave granularity, so a dependent
// launch can start its first waves as the producer's last waves drain
// instead of waiting for the whole descriptor to retire — the runtime's
// wave-pipelining gate (internal/mealibrt) is the one consumer.

// WaveHooks observes and gates the wavefront execution of one launch.
// Methods are called from scheduler goroutines; implementations must be
// concurrency-safe. A nil WaveHooks disables the machinery at zero cost.
type WaveHooks interface {
	// Lowered announces the next window of the launch's schedule before it
	// executes: one directional span list per topological wave, in
	// execution order, numbered on from the waves already announced. A nil
	// element means that wave's footprint could not be resolved (it must be
	// treated as touching everything). more reports that further windows
	// follow; until the last one is announced, the waves still to come can
	// touch anything the launch can.
	Lowered(waves [][]span.Dir, more bool)
	// WaveStart blocks until wave w may execute. The scheduler calls it
	// immediately before running the wave's nodes.
	WaveStart(w int)
	// WaveDone reports wave w complete; elapsed is the launch's cumulative
	// model time through that wave (fetch/decode overhead excluded — the
	// price adds it last).
	WaveDone(w int, elapsed units.Seconds)
}

// waveSpansOf materialises the per-wave directional footprint of a lowered
// window for WaveHooks.Lowered, every instance's spans in program order. A
// wave containing any barrier node collapses to nil: its footprint is unknown
// and conflicts with everything.
func waveSpansOf(p *plan) [][]span.Dir {
	out := make([][]span.Dir, len(p.waves))
	for wi, wave := range p.waves {
		spans := make([]span.Dir, 0, p.width(wave))
		if p.inOrder(wave, func(k int32, j int) bool {
			nd := &p.nodes[k]
			if nd.barrier {
				return false
			}
			it := p.iterAt(k, j)
			for i := range nd.tmpl.spans {
				sp, ok := nd.tmpl.spans[i].At(it)
				if !ok {
					return false
				}
				spans = append(spans, sp)
			}
			return true
		}) {
			out[wi] = spans
		}
	}
	return out
}
