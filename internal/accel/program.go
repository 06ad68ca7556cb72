package accel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// A compiled program. mealib_acc_plan builds the descriptor once and
// mealib_acc_execute is a cache flush and a doorbell (paper §3.5), so that a
// plan launched thousands of times pays its set-up once. Program is that
// set-up on the accelerator's side: everything a run derives from the
// descriptor and the layer configuration alone, its price included. A run adds
// what the moment of the launch decides: the memory it executes against and
// its hooks.

// Program is a descriptor compiled for one layer. It is read-only once built
// (but for waveSpans and rep, each filled in once): any number of runs,
// concurrent ones included, share it.
type Program struct {
	// lw holds the segments, fused, with every pass bound, resolved and priced
	// into its template, and the cursor at the first node: a run copies it.
	lw lowering
	// win is the lowered plan, edges and waves included, when the whole
	// program is one window; a longer one lowers window by window as it runs,
	// so that compiling costs O(descriptor + one window) whatever the trip
	// counts. waveSpans is win's per-wave footprint for WaveHooks.Lowered,
	// built by the first hooked run (most programs never meet a hook).
	win       *plan
	wavesOnce sync.Once
	waveSpans [][]span.Dir
	// rep is the price (Report), summed lazily so that compiling stays cheap.
	repOnce sync.Once
	rep     *Report
	// fetchDecode is the configuration unit's time for the descriptor.
	fetchDecode units.Seconds
	// img is the descriptor as encoded at base 0 and ptrs the offsets of its
	// address words (descriptor.Image): what Compile adds to compile.
	img  []byte
	ptrs []int
}

// Compile validates the descriptor against the layer (structure, instruction
// memory) and compiles it. The program keeps the descriptor's parameter
// blocks: the caller must not change d afterwards.
func (l *Layer) Compile(d *descriptor.Descriptor) (*Program, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	prog, err := l.compile(d, planWindow)
	if err != nil {
		return nil, err
	}
	prog.img, prog.ptrs, err = d.Image()
	return prog, err
}

// compile is the one way from a descriptor to something the scheduler runs:
// lower it (segments, fusion, templates with their prices, the fixed time) and,
// if all its nodes fit one window of `window`, lower that window too.
func (l *Layer) compile(d *descriptor.Descriptor, window int) (*Program, error) {
	tb := l.tr.Buffer(telemetry.TrackAccel)
	defer tb.Release()
	tb.Begin(telemetry.SpanPlanLower, "compile")
	prog := &Program{fetchDecode: l.cfg.CU.FetchDecodeTime(d)}
	if err := l.lower(d, planExpand, &prog.lw); err != nil {
		tb.End(telemetry.SpanPlanLower, 0)
		return nil, err
	}
	prog.lw.window = window
	nodes := int64(0)
	for si := range prog.lw.segs {
		seg := &prog.lw.segs[si]
		// Capped first: trips times passes may not fit an int64.
		nodes += min(prog.lw.trips(seg), int64(window)+1) * int64(len(seg.passes))
	}
	if nodes <= int64(window) {
		cur := prog.lw
		prog.win = new(plan)
		cur.next(prog.win)
		prog.win.sb = scoreboard{}
	}
	tb.End(telemetry.SpanPlanLower, 0)
	l.met.compiles.Add(1)
	return prog, nil
}

// wavesOf returns the per-wave footprint of window p of the program: built
// once for the window it was compiled with, per call for any other.
func (pr *Program) wavesOf(p *plan) [][]span.Dir {
	if p != pr.win {
		return waveSpansOf(p)
	}
	pr.wavesOnce.Do(func() { pr.waveSpans = waveSpansOf(p) })
	return pr.waveSpans
}

// Report is the program's price: the one *Report every successful launch of
// it returns, shared and read-only. It is nil when no launch can succeed (a
// pass that does not bind or price).
func (pr *Program) Report() *Report {
	pr.repOnce.Do(func() { pr.rep, _ = pr.lw.price(pr.fetchDecode) })
	return pr.rep
}

// Install writes the program's image at base, command idle: what
// descriptor.Encode writes there for the descriptor it was compiled from.
func (pr *Program) Install(s *phys.Space, base phys.Addr) error {
	return descriptor.InstallImage(s, base, pr.img, pr.ptrs)
}

// installedAt reports whether the bytes at base are the program's image, the
// magic and the command word (the caller's, through ReadCommand) aside.
func (pr *Program) installedAt(s *phys.Space, base phys.Addr) bool {
	slot, err := s.ViewBytes(base, len(pr.img))
	if err != nil {
		return false
	}
	at := 8
	for _, off := range pr.ptrs {
		if !bytes.Equal(slot[at:off], pr.img[at:off]) ||
			binary.LittleEndian.Uint64(slot[off:]) != binary.LittleEndian.Uint64(pr.img[off:])+uint64(base) {
			return false
		}
		at = off + 8
	}
	return bytes.Equal(slot[at:], pr.img[at:])
}

// started checks the doorbell: the CR command at base must be CmdStart.
func started(s *phys.Space, base phys.Addr) error {
	cmd, err := descriptor.ReadCommand(s, base)
	if err != nil {
		return err
	}
	if cmd != descriptor.CmdStart {
		return fmt.Errorf("accel: descriptor at %v not started (command %d)", base, cmd)
	}
	return nil
}

// RunProgram is RunHooked for a descriptor the caller compiled when it
// installed it. The hardware still fetches from memory: the command at base
// must be CmdStart and the bytes there must be the program's image, in which
// case the run skips the decode and the lowering and is otherwise the same
// run; the fetch and decode time is charged as ever. Bytes that differ are
// decoded, compiled and run as Run would — a stale program never executes.
func (l *Layer) RunProgram(s *phys.Space, base phys.Addr, prog *Program, hooks WaveHooks) (*Report, error) {
	if err := started(s, base); err != nil {
		return nil, err
	}
	if !prog.installedAt(s, base) {
		return l.run(s, base, hooks)
	}
	return l.launch(prog, s, base, hooks)
}
