package mealibd

import (
	"slices"

	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/span"
)

// Request batching. Small launches pay the fixed invocation overhead (cache
// flush, descriptor copy, doorbell) per descriptor; a tenant streaming many
// tiny independent descriptors would spend more model time invoking than
// computing. The batcher coalesces compatible small submissions from one
// session into a single merged launch: each member descriptor becomes its
// own pass of the merged descriptor, so pairwise-disjoint members land in
// the same wavefront and spread across the tiles, and the whole batch pays
// one invocation overhead.
//
// Compatibility rules — a submission joins the current batch only if it is
// loop-free, its footprint is under Config.BatchBytes, and it does not
// conflict (write-write, write-read, read-write) with any batched member;
// anything else flushes the batch first. Flushes also happen when the batch
// reaches Config.BatchMax, before any request whose semantics must
// observe launched data (wait, load, free, plan destroy, stats), and before
// a store whose span conflicts with a batched member (the member's launch
// must consume the data the tenant submitted it against, not the later
// store) — so
// batching is invisible to the tenant beyond the shared invocation
// accounting: every member's Wait reports the merged launch with
// Report.Batched carrying the member count.
type batcher struct {
	sc      *srvConn
	members []batchMember
}

type batchMember struct {
	p    *mealibrt.Plan
	pend *pending
}

// submit routes one plan submission: into the batch when compatible, as a
// direct launch otherwise. Admission is asynchronous either way, so every
// launch error — typed backpressure included — surfaces at the ticket's
// Wait.
func (b *batcher) submit(p *mealibrt.Plan, pend *pending) {
	srv := b.sc.srv
	writes, reads := p.Footprint()
	if srv.cfg.BatchMax <= 1 || footprint(writes)+footprint(reads) > srv.cfg.BatchBytes ||
		slices.ContainsFunc(p.Scopes(), func(sc descriptor.Scope) bool { return sc.Loop }) {
		b.flush()
		b.sc.launch(p, false, 1, []*pending{pend})
		return
	}
	if b.conflicts(writes, reads) {
		b.flush()
	}
	b.members = append(b.members, batchMember{p: p, pend: pend})
	if len(b.members) >= srv.cfg.BatchMax {
		b.flush()
	}
}

// conflicts reports whether the spans carry a hazard against any batched
// member. Conflicting descriptors must not share a launch: passes of one
// descriptor may execute in any wave order.
func (b *batcher) conflicts(writes, reads []span.Span) bool {
	for _, m := range b.members {
		if w, r := m.p.Footprint(); span.Conflict(writes, reads, w, r) {
			return true
		}
	}
	return false
}

// flush launches whatever the batch holds. A single member launches alone;
// several merge into one descriptor — one pass per member pass — installed as
// an ephemeral session plan, launched once, and fanned out to every member's
// ticket on completion. A merge the session cannot install (a member gone
// stale since it was planned, members that fit the instruction memory one by
// one and not together) is nobody's verdict: every member then launches alone
// through its own installed plan, in submission order, and gets its own.
func (b *batcher) flush() {
	if b == nil || len(b.members) == 0 {
		return
	}
	members := b.members
	b.members = nil
	// A batch of one launches through its installed plan directly: the
	// ephemeral merge would only duplicate the command-space encoding.
	var plan *mealibrt.Plan
	if len(members) > 1 {
		plan = b.merge(members)
	}
	if plan == nil {
		for _, m := range members {
			b.sc.launch(m.p, false, 1, []*pending{m.pend})
		}
		return
	}
	b.sc.srv.mBatches.Add(1)
	b.sc.srv.mCoalesced.Add(int64(len(members)))
	pends := make([]*pending, len(members))
	for i, m := range members {
		pends[i] = m.pend
	}
	b.sc.launch(plan, true, int64(len(members)), pends)
}

// merge installs the members' passes as one plan, or returns nil.
func (b *batcher) merge(members []batchMember) *mealibrt.Plan {
	merged := &descriptor.Descriptor{}
	for _, m := range members {
		for _, sc := range m.p.Scopes() {
			for _, pass := range sc.Passes {
				for _, c := range pass {
					if merged.AddComp(c.Op, c.Params) != nil {
						return nil
					}
				}
				merged.AddEndPass()
			}
		}
	}
	plan, _ := b.sc.sess.AccPlanDescriptor(merged) // nil with any error: the members answer for themselves
	return plan
}
