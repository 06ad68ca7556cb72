package mealibrt

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/units"
)

// Out-of-core schedule driver. An out-of-core plan's descriptor names
// host-backed buffers the accelerators cannot reach; plan lowering
// (accel.PlanOOC) split it into chunks whose window extents are relocated
// into the double-buffered staging region, and this file executes that
// schedule: stage in, execute, write back, chunk by chunk, with chunk N+1's
// stage-in prefetched on a real goroutine under chunk N's execution whenever
// the schedule marked it legal. Admission already serialised the flight
// against everything conflicting (including the staging region itself, via
// Plan.admWrites), so the only concurrency inside a schedule is the one the
// Prefetchable flags license.
//
// The model prices the schedule once, when the plan is installed (priceOOC),
// as a three-timeline pipeline per the overlap argument of libhclooc
// (PAPERS.md): the host↔stack link is full duplex, so stage-ins occupy an
// inbound timeline and write-backs an outbound one, while chunk executions
// serialise on the accelerator timeline (each paying the per-launch
// descriptor setup). A staging half is reusable once its previous occupant's
// write-back drains; a non-prefetchable chunk's stage-in additionally waits
// for the whole previous chunk to finish. With Config.NoPrefetch every
// stage-in waits that way: the synchronous baseline
// TestOOCPrefetchFasterThanSync compares against.

// oocSpans reports whether any span lives in the host-backed window.
func (r *Runtime) oocSpans(spans []span.Span) bool {
	for _, sp := range spans {
		if sp.Bytes > 0 && r.driver.InHostWindow(sp.Addr) {
			return true
		}
	}
	return false
}

// stageIn copies a chunk's host extents into their staging slots. Every
// extent is copied, write-only ones included, so stride gaps inside an
// extent round-trip unchanged.
func (r *Runtime) stageIn(ch *accel.OOCChunk) error {
	for _, ext := range ch.Extents {
		src, err := r.space.ViewBytes(ext.Host, int(ext.Bytes))
		if err != nil {
			return fmt.Errorf("mealibrt: ooc stage-in: %w", err)
		}
		dst, err := r.space.ViewBytes(ext.Staged, int(ext.Bytes))
		if err != nil {
			return fmt.Errorf("mealibrt: ooc stage-in: %w", err)
		}
		copy(dst, src)
	}
	return nil
}

// writeBack copies a chunk's written extents from staging back to the host.
func (r *Runtime) writeBack(ch *accel.OOCChunk) error {
	for _, ext := range ch.Extents {
		if !ext.Out {
			continue
		}
		src, err := r.space.ViewBytes(ext.Staged, int(ext.Bytes))
		if err != nil {
			return fmt.Errorf("mealibrt: ooc write-back: %w", err)
		}
		dst, err := r.space.ViewBytes(ext.Host, int(ext.Bytes))
		if err != nil {
			return fmt.Errorf("mealibrt: ooc write-back: %w", err)
		}
		copy(dst, src)
	}
	return nil
}

// runChunk installs the chunk's program at base, rings it and runs it.
func (r *Runtime) runChunk(ch *accel.OOCChunk, base phys.Addr) (*accel.Report, error) {
	if err := ch.Prog.Install(r.space, base); err != nil {
		return nil, err
	}
	if err := descriptor.WriteCommand(r.space, base, descriptor.CmdStart); err != nil {
		return nil, err
	}
	return r.layers[0].RunProgram(r.space, base, ch.Prog)
}

// priceOOC is the model's report of every launch of the schedule: the chunk
// programs' reports merged in chunk order, the pipelined time of the three
// timelines in place of their sum, plus the staging energy and traffic. Nil
// when a chunk program has no report (no launch of it can succeed).
func (r *Runtime) priceOOC(sched *accel.OOCSchedule) *accel.Report {
	acfg := r.layers[0].Config()
	agg := &accel.Report{PerOp: map[descriptor.OpCode]*accel.OpStats{}}
	// Timelines in model seconds from the flight's start; halfFree is when
	// each staging half's last write-back drains.
	var in, acc, out units.Timeline
	var halfFree [2]units.Seconds
	var stageE units.Joules
	for _, ch := range sched.Chunks {
		rep := ch.Prog.Report()
		if rep == nil {
			return nil
		}
		// Stage-in on the inbound link: after the link frees up and the
		// chunk's staging half drains, and — when the stage-in may not
		// overlap the previous chunk (data dependence, or NoPrefetch) —
		// after the previous chunk completes outright, its write-back
		// drained.
		tIn, eIn := acfg.StagingCost(ch.StageInBytes)
		ready := halfFree[ch.Half]
		if r.cfg.NoPrefetch || !ch.Prefetchable {
			ready = max(ready, out.Free())
		}
		_, staged := in.Reserve(ready, tIn)
		stageE += eIn
		// Execution on the accelerator timeline (the descriptor setup, then
		// the run), then write-back on the outbound link; the chunk's half
		// is reusable once it has drained.
		_, set := acc.Reserve(staged, r.cfg.DescriptorSetupLatency)
		_, ran := acc.Reserve(set, rep.Time)
		tOut, eOut := acfg.StagingCost(ch.WriteBackBytes)
		_, halfFree[ch.Half] = out.Reserve(ran, tOut)
		stageE += eOut
		agg.Merge(rep)
	}
	// End to end, the flight spans until both the accelerator and the
	// outbound link drain; the per-chunk Times summed by Merge are replaced
	// with the pipelined total.
	agg.Time = max(acc.Free(), out.Free())
	agg.Energy += stageE
	agg.OOCChunks = int64(len(sched.Chunks))
	agg.StagedBytes = sched.StageInBytes + sched.WriteBackBytes
	return agg
}

// runOOC drives the plan's chunk schedule and returns the plan's price.
// Called from the launch's flight goroutine, so the launch is admitted and
// holds the staging region; the descriptor command slot at p.basePA is reused
// serially for every chunk.
func (r *Runtime) runOOC(p *Plan) (*accel.Report, error) {
	chunks := p.ooc.Chunks
	// pf carries the in-progress prefetch of the next chunk's stage-in; a
	// failed launch joins it before returning.
	var pf chan error
	defer func() {
		if pf != nil {
			<-pf
		}
	}()
	for i, ch := range chunks {
		// Stage in: join the prefetch launched under the previous chunk's
		// execution, or copy synchronously.
		var err error
		if pf != nil {
			err, pf = <-pf, nil
		} else {
			err = r.stageIn(ch)
		}
		if err != nil {
			return nil, err
		}
		// Launch the next chunk's prefetch before executing: it reads host
		// extents disjoint from this chunk's write-backs (that is what
		// Prefetchable certifies) and fills the other staging half, whose
		// previous occupant was already written back.
		if next := i + 1; next < len(chunks) && !r.cfg.NoPrefetch && chunks[next].Prefetchable {
			pf = make(chan error, 1)
			nc := chunks[next]
			go func() { pf <- r.stageIn(nc) }()
		}
		// Execute the rebased chunk descriptor out of the plan's slot: its
		// image, compiled when the schedule was planned, and the doorbell.
		if _, err := r.runChunk(ch, p.basePA); err != nil {
			return nil, fmt.Errorf("mealibrt: ooc chunk %d: %w", i, err)
		}
		if err := r.writeBack(ch); err != nil {
			return nil, err
		}
	}
	r.mOOCLaunches.Add(1)
	r.mOOCChunks.Add(p.price.OOCChunks)
	r.mOOCStaged.Add(int64(p.price.StagedBytes))
	return p.price, nil
}
