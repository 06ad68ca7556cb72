package mealibrt

import "mealib/internal/span"

// Fair admission. Submit used to spin on a condition variable, which admits
// waiters in whatever order the Go scheduler wakes them — under load one
// tenant's burst can win every race and starve the others. Admission is now
// an explicit queue: blocked submissions enqueue in arrival order, and every
// event that could unblock one (a flight retiring, a cancelled waiter
// leaving) runs the pump, which admits every waiter it can while cycling
// round-robin over tenants. One tenant's conflicting stream therefore
// interleaves with another's instead of monopolising the accelerator.

// tenant returns the plan's tenant name for fair admission.
func (p *Plan) tenant() string { return p.sess.cfg.Name }

// waiter is one submission blocked in admission.
type waiter struct {
	p      *Plan
	tenant string
	// ready is closed by the pump once the waiter is admitted and its
	// flight registered.
	ready chan struct{}
	// fl is the waiter's flight once the pump has admitted it (written with
	// mu held).
	fl *flight
}

// blockedLocked reports whether the plan must wait for admission: the global
// or per-session MaxInFlight cap is full, or (unless wave pipelining gates
// conflicts at wave granularity instead) its spans conflict with an
// in-flight descriptor. Called with mu held.
func (r *Runtime) blockedLocked(p *Plan) bool {
	if r.cfg.MaxInFlight > 0 && len(r.inflight) >= r.cfg.MaxInFlight {
		return true
	}
	if s := p.sess; s.cfg.MaxInFlight > 0 && s.inflight >= s.cfg.MaxInFlight {
		return true
	}
	if r.cfg.WavePipeline && p.ooc == nil {
		// Conflicting gated flights are admitted; their waves gate on the
		// producers' progress (pipeline.go). A gateless flight (an
		// out-of-core chunk schedule) exposes no wave stream to gate
		// behind, so conflicts with one still block admission.
		for _, fl := range r.inflight {
			if fl.gate == nil && plansConflict(p, fl.p) {
				return true
			}
		}
		return false
	}
	// No pipelining — or an out-of-core plan, whose staged chunk schedule
	// runs gateless and must serialize behind every conflicting flight.
	for _, fl := range r.inflight {
		if plansConflict(p, fl.p) {
			return true
		}
	}
	return false
}

// admitNowLocked reports whether a fresh submission may bypass the queue:
// it must be unblocked, the tenant must have no queued submissions (per-
// tenant FIFO order), and it must not conflict with any queued waiter —
// barging past a waiter that is stalled on exactly these spans would starve
// it. Called with mu held.
func (r *Runtime) admitNowLocked(p *Plan) bool {
	if r.blockedLocked(p) {
		return false
	}
	for _, w := range r.waiters {
		if w.tenant == p.tenant() {
			return false
		}
		if (!r.cfg.WavePipeline || p.ooc != nil || w.p.ooc != nil) && plansConflict(p, w.p) {
			return false
		}
	}
	return true
}

// plansConflict reports a dependence between two launches, by their
// admission footprints (the staging region counts as written by an
// out-of-core plan).
func plansConflict(a, b *Plan) bool {
	return span.Overlap(a.admWrites, b.admWrites) ||
		span.Overlap(a.admWrites, b.reads) ||
		span.Overlap(a.reads, b.admWrites)
}

// enqueueLocked appends a blocked submission to the admission queue.
func (r *Runtime) enqueueLocked(p *Plan) *waiter {
	w := &waiter{p: p, tenant: p.tenant(), ready: make(chan struct{})}
	r.waiters = append(r.waiters, w)
	p.sess.queued++
	return w
}

// dequeueLocked removes w from the admission queue (cancellation, or the
// pump after admitting it).
func (r *Runtime) dequeueLocked(w *waiter) {
	for i, q := range r.waiters {
		if q == w {
			r.waiters = append(r.waiters[:i], r.waiters[i+1:]...)
			w.p.sess.queued--
			return
		}
	}
}

// pumpLocked admits every waiter it can. Tenants are considered round-robin
// (starting just past the last admitted tenant), and only each tenant's
// oldest waiter is a candidate, preserving per-tenant FIFO order. Called
// with mu held after any event that may unblock admission.
func (r *Runtime) pumpLocked() {
	for {
		w := r.pickLocked()
		if w == nil {
			return
		}
		r.dequeueLocked(w)
		w.fl = r.registerFlightLocked(w.p)
		r.lastTenant = w.tenant
		close(w.ready)
	}
}

// pickLocked returns the next admissible waiter under round-robin tenant
// order, or nil.
func (r *Runtime) pickLocked() *waiter {
	var tenants []string
	heads := make(map[string]*waiter, 4)
	for _, w := range r.waiters {
		if _, ok := heads[w.tenant]; !ok {
			heads[w.tenant] = w
			tenants = append(tenants, w.tenant)
		}
	}
	if len(tenants) == 0 {
		return nil
	}
	start := 0
	for i, t := range tenants {
		if t == r.lastTenant {
			start = i + 1
			break
		}
	}
	for i := 0; i < len(tenants); i++ {
		w := heads[tenants[(start+i)%len(tenants)]]
		if !r.blockedLocked(w.p) {
			return w
		}
	}
	return nil
}

// registerFlightLocked admits a plan: the flight joins the in-flight
// registry at the current model-time frontier, session accounting and the
// admission hook fire, and (with wave pipelining enabled) the flight's gate
// captures the conflicting older flights it must pipeline behind. Called
// with mu held.
func (r *Runtime) registerFlightLocked(p *Plan) *flight {
	r.seq++
	fl := &flight{p: p, start: r.clock, seq: r.seq}
	if r.cfg.WavePipeline && p.ooc == nil {
		fl.gate = &flightGate{r: r, fl: fl, more: true}
		for _, g := range r.inflight {
			if g.gate != nil && plansConflict(p, g.p) {
				fl.gate.olders = append(fl.gate.olders, g.gate)
			}
		}
	}
	r.inflight = append(r.inflight, fl)
	p.sess.inflight++
	p.sess.gInflight.Set(int64(p.sess.inflight))
	r.mInflight.Set(int64(len(r.inflight)))
	if r.cfg.AdmitHook != nil {
		r.cfg.AdmitHook(p.tenant())
	}
	return fl
}

// unregisterFlightLocked backs out an admitted flight that never launched
// (verification failure, or admission raced a cancellation). Called with mu
// held.
func (r *Runtime) unregisterFlightLocked(fl *flight) {
	if fl.gate != nil {
		fl.gate.retired = true
		fl.gate.endAt = fl.start + fl.gate.shift + fl.gate.elapsed
	}
	r.removeFlightLocked(fl)
}
