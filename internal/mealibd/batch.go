package mealibd

import (
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
	p      *mealibrt.Plan
	d      *descriptor.Descriptor
	writes []span.Span
	reads  []span.Span
	pend   *pending
}

// submit routes one plan submission: into the batch when compatible, as a
// direct launch otherwise. Admission is asynchronous either way, so every
// launch error — typed backpressure included — surfaces at the ticket's
// Wait.
func (b *batcher) submit(p *mealibrt.Plan, pend *pending) {
	srv := b.sc.srv
	d := p.Descriptor()
	writes, reads := p.Footprint()
	if srv.cfg.BatchMax <= 1 || hasLoop(d) ||
		footprint(writes)+footprint(reads) > srv.cfg.BatchBytes {
		b.flush()
		b.sc.launch(p, false, 1, []*pending{pend})
		return
	}
	if b.conflicts(writes, reads) {
		b.flush()
	}
	b.members = append(b.members, batchMember{p: p, d: d, writes: writes, reads: reads, pend: pend})
	if len(b.members) >= srv.cfg.BatchMax {
		b.flush()
	}
}

// conflicts reports whether the spans carry a hazard against any batched
// member. Conflicting descriptors must not share a launch: passes of one
// descriptor may execute in any wave order.
func (b *batcher) conflicts(writes, reads []span.Span) bool {
	for _, m := range b.members {
		if span.Conflict(writes, reads, m.writes, m.reads) {
			return true
		}
	}
	return false
}

// flush launches whatever the batch holds. A single member launches alone;
// several merge into one descriptor — one pass per member — installed as an
// ephemeral session plan, launched once, and fanned out to every member's
// ticket on completion.
func (b *batcher) flush() {
	if b == nil || len(b.members) == 0 {
		return
	}
	members := b.members
	b.members = nil
	if len(members) == 1 {
		// A batch of one launches through its installed plan directly; the
		// ephemeral merge would only duplicate the command-space encoding.
		m := members[0]
		b.sc.launch(m.p, false, 1, []*pending{m.pend})
		return
	}
	merged := &descriptor.Descriptor{}
	for _, m := range members {
		if err := appendPasses(merged, m.d); err != nil {
			b.failAll(members, err)
			return
		}
	}
	plan, err := b.sc.sess.AccPlanDescriptor(merged)
	if err != nil {
		b.failAll(members, err)
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

func (b *batcher) failAll(members []batchMember, err error) {
	for _, m := range members {
		m.pend.err = err
		close(m.pend.done)
	}
}

// appendPasses copies src's loop-free pass structure onto dst.
func appendPasses(dst, src *descriptor.Descriptor) error {
	comp := 0
	for _, in := range src.Instrs {
		switch in.Kind {
		case descriptor.KindComp:
			p, err := src.ParamsOf(comp)
			if err != nil {
				return err
			}
			comp++
			if err := dst.AddComp(in.Op, p); err != nil {
				return err
			}
		case descriptor.KindEndPass:
			dst.AddEndPass()
		}
	}
	return nil
}
