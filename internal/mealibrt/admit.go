package mealibrt

import (
	"slices"

	"mealib/internal/span"
)

// Fair admission. Submit used to spin on a condition variable, which admits
// waiters in whatever order the Go scheduler wakes them — under load one
// tenant's burst can win every race and starve the others. Admission is now
// explicit: a launch that cannot be admitted at Accept stays queued in the
// registry, in acceptance order, and every launch that leaves the registry —
// retired, failed, or a cancelled waiter giving its place back — runs the
// pump, which admits every queued launch it can while cycling round-robin
// over tenants. One tenant's conflicting stream therefore interleaves with
// another's instead of monopolising the accelerator.

// tenant returns the plan's tenant name for fair admission.
func (p *Plan) tenant() string { return p.sess.cfg.Name }

// blockedLocked reports whether the plan must wait for admission: the global
// or per-session MaxInFlight cap is full, or the plan conflicts with a launch
// in flight, whose whole flight it then waits for (paper §3.5: a descriptor
// that depends on another runs after it). A launch of the plan in flight
// counts as a conflict whatever the spans: the two share the plan's one
// command word, where the later doorbell and the earlier CmdDone would
// overwrite each other. Called with mu held.
func (r *Runtime) blockedLocked(p *Plan) bool {
	if r.cfg.MaxInFlight > 0 && r.inflight >= r.cfg.MaxInFlight {
		return true
	}
	if s := p.sess; s.cfg.MaxInFlight > 0 && s.inflight >= s.cfg.MaxInFlight {
		return true
	}
	for _, l := range r.launches {
		if l.seq != 0 && (l.p == p || plansConflict(p, l.p)) {
			return true
		}
	}
	return false
}

// admitNowLocked reports whether a fresh submission may bypass the queue:
// it must be unblocked, the tenant must have no queued submissions (per-
// tenant FIFO order), and it must not conflict with any queued launch —
// barging past one that is stalled on exactly these spans would starve it.
// Called with mu held.
func (r *Runtime) admitNowLocked(p *Plan) bool {
	if r.blockedLocked(p) {
		return false
	}
	for _, w := range r.launches {
		if w.seq == 0 && (w.p.tenant() == p.tenant() || plansConflict(p, w.p)) {
			return false
		}
	}
	return true
}

// plansConflict reports a dependence between two launches, by their
// admission footprints (the staging region counts as written by an
// out-of-core plan).
func plansConflict(a, b *Plan) bool {
	return span.Conflict(a.admWrites, a.reads, b.admWrites, b.reads)
}

// pumpLocked admits every queued launch it can. Called with mu held after any
// event that may unblock admission.
func (r *Runtime) pumpLocked() {
	for l := r.pickLocked(); l != nil; l = r.pickLocked() {
		r.admitLocked(l)
		r.lastTenant = l.p.tenant()
	}
}

// pickLocked returns the next admissible queued launch, or nil. Tenants are
// considered round-robin (starting just past the last admitted tenant), and
// only each tenant's oldest queued launch is a candidate, preserving per-
// tenant FIFO order.
func (r *Runtime) pickLocked() *Launch {
	var tenants []string
	heads := make(map[string]*Launch, 4)
	for _, w := range r.launches {
		t := w.p.tenant()
		if _, seen := heads[t]; w.seq == 0 && !seen {
			heads[t] = w
			tenants = append(tenants, t)
		}
	}
	start := 0
	for i, t := range tenants {
		if t == r.lastTenant {
			start = i + 1
			break
		}
	}
	for i := range tenants {
		w := heads[tenants[(start+i)%len(tenants)]]
		if !r.blockedLocked(w.p) {
			return w
		}
	}
	return nil
}

// admitLocked moves an accepted launch into flight: it takes the next
// admission number and the current model-time frontier as its start (every
// launch it conflicts with has retired by then, so it starts after their
// ends), session accounting and the admission hook fire, and a queued
// launch's Start is woken. Called with mu held.
func (r *Runtime) admitLocked(l *Launch) {
	p, s := l.p, l.p.sess
	r.seq++
	l.seq, l.start = r.seq, r.clock
	r.inflight++
	s.inflight++
	if l.ready != nil {
		s.queued--
		close(l.ready)
	}
	s.gInflight.Set(int64(s.inflight))
	r.mInflight.Set(int64(r.inflight))
	if r.cfg.AdmitHook != nil {
		r.cfg.AdmitHook(p.tenant())
	}
}

// finish is the one way a launch leaves the registry: retired (inv, which
// retireLocked completes), failed, or backed out before it ran (err). It
// closes the launch's window on the model timeline, gives back its
// MaxInFlight slot or its place in the queue and its plan's count, and wakes
// everything that may have been waiting on it: host operations, Destroy and
// Session.Close on cond, queued launches through the pump. Wait
// is completed last, with mu released, so the caller it wakes does not run
// into the lock.
func (r *Runtime) finish(l *Launch, inv *Invocation, err error) {
	s := l.p.sess
	r.mu.Lock()
	if inv != nil {
		r.retireLocked(l, inv)
	}
	r.launches = slices.DeleteFunc(r.launches, func(o *Launch) bool { return o == l })
	if l.seq != 0 {
		r.inflight--
		s.inflight--
		s.gInflight.Set(int64(s.inflight))
		r.mInflight.Set(int64(r.inflight))
	} else {
		s.queued--
	}
	l.p.accepted--
	l.inv, l.err = inv, err
	r.cond.Broadcast()
	r.pumpLocked()
	r.mu.Unlock()
	if l.done != nil {
		close(l.done)
	}
}
