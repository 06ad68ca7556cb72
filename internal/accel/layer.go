package accel

import (
	"cmp"
	"fmt"
	"slices"

	"mealib/internal/descriptor"
	"mealib/internal/noc"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Layer is the accelerator layer of one memory stack: the tiles, their
// accelerator cores, and the configuration unit (fetch unit, instruction
// memory, decode unit) that executes accelerator descriptors (paper §2.2).
type Layer struct {
	cfg *Config
	// tr records execution spans; met holds the metric handles, resolved
	// once here so the hot path updates plain atomics (or no-ops on nil).
	tr  *telemetry.Tracer
	met layerMetrics
}

// layerMetrics are the accelerator-side metric handles. All fields no-op
// when nil (telemetry disabled).
type layerMetrics struct {
	launches       *telemetry.Counter
	compiles       *telemetry.Counter
	nodes          *telemetry.Counter
	comps          *telemetry.Counter
	bytesMoved     *telemetry.Counter
	bytesElided    *telemetry.Counter
	fusedGroups    *telemetry.Counter
	fusionSpills   *telemetry.Counter
	wavesPerLaunch *telemetry.Histogram
	waveWidth      *telemetry.Histogram
	// Per-opcode activity, indexed by descriptor.OpCode like the op table.
	opInv, opNS, opPJ []*telemetry.Counter
}

func (m *layerMetrics) init(reg *telemetry.Metrics) {
	if reg == nil {
		return
	}
	m.launches = reg.Counter("accel.launches")
	m.compiles = reg.Counter("accel.compiles")
	m.nodes = reg.Counter("accel.nodes")
	m.comps = reg.Counter("accel.comps")
	m.bytesMoved = reg.Counter("accel.bytes_moved")
	m.bytesElided = reg.Counter("accel.bytes_elided")
	m.fusedGroups = reg.Counter("accel.fused_groups")
	m.fusionSpills = reg.Counter("accel.fusion_spills")
	m.wavesPerLaunch = reg.Histogram("accel.waves_per_launch")
	m.waveWidth = reg.Histogram("accel.wave_width")
	m.opInv = make([]*telemetry.Counter, len(specs))
	m.opNS = make([]*telemetry.Counter, len(specs))
	m.opPJ = make([]*telemetry.Counter, len(specs))
	for i, spec := range specs {
		if spec == nil {
			continue
		}
		name := "accel.op." + descriptor.OpCode(i).String()
		m.opInv[i] = reg.Counter(name + ".invocations")
		m.opNS[i] = reg.Counter(name + ".ns")
		m.opPJ[i] = reg.Counter(name + ".pJ")
	}
}

// NewLayer builds the layer from a validated configuration.
func NewLayer(cfg *Config) (*Layer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &Layer{cfg: cfg, tr: cfg.Tracer}
	l.met.init(cfg.Tracer.Metrics())
	return l, nil
}

// noteLaunch feeds the per-launch metrics from the final report.
// accel.bytes_moved is the DRAM traffic that actually happened — per-op
// bytes minus what chaining kept in tile-local memory — while
// accel.bytes_elided counts the avoided traffic, so moved+elided is the
// unfused baseline.
func (l *Layer) noteLaunch(rep *Report) {
	if l.tr == nil {
		return
	}
	l.met.launches.Add(1)
	l.met.comps.Add(rep.Comps)
	var total int64
	for op, st := range rep.PerOp {
		if int(op) >= len(l.met.opInv) {
			continue
		}
		l.met.opInv[op].Add(st.Invocations)
		l.met.opNS[op].Add(int64(float64(st.Time) * 1e9))
		l.met.opPJ[op].Add(int64(float64(st.Energy) * 1e12))
		total += int64(st.Bytes)
	}
	moved := total - int64(rep.ElidedBytes)
	if moved < 0 {
		moved = 0
	}
	l.met.bytesMoved.Add(moved)
	l.met.bytesElided.Add(int64(rep.ElidedBytes))
}

// Config returns the layer configuration.
func (l *Layer) Config() *Config { return l.cfg }

// OpStats accumulates per-accelerator activity for the Figure 14 breakdown.
type OpStats struct {
	Invocations int64
	Time        units.Seconds
	Energy      units.Joules
	Flops       units.Flops
	Bytes       units.Bytes
}

// Report is the outcome of one descriptor execution. Every launch of a
// compiled program returns the same one, read-only (Program.Report).
type Report struct {
	Time   units.Seconds
	Energy units.Joules
	PerOp  map[descriptor.OpCode]*OpStats
	// Comps counts accelerator activations (LOOP iterations included).
	Comps int64
	// NoCBytes is inter-tile traffic from hardware chaining.
	NoCBytes units.Bytes
	// FetchDecodeTime is the configuration unit's share of Time (fetch
	// unit transfer + decode unit parsing).
	FetchDecodeTime units.Seconds
	// LMSpillBytes is chained intermediate traffic that exceeded the tile
	// local memories and round-tripped through DRAM after all.
	LMSpillBytes units.Bytes
	// RemoteBytes is traffic to buffers living on remote memory stacks,
	// which crossed the inter-stack links (paper §3.3).
	RemoteBytes units.Bytes
	// ElidedBytes is DRAM traffic chaining kept in tile-local memory: the
	// producer's store and the consumer's load of every chained
	// intermediate (2x the handoff size per link). Per-op byte counts in
	// PerOp stay unadjusted, so total DRAM traffic is ΣPerOp.Bytes minus
	// ElidedBytes.
	ElidedBytes units.Bytes
	// OOCChunks counts chunked launches of out-of-core descriptors, and
	// StagedBytes the host↔staging link traffic (stage-in plus write-back)
	// those launches moved. Both are zero for in-core executions.
	OOCChunks   int64
	StagedBytes units.Bytes
}

// Merge folds sub into r. Per-op stats merge in op-table order, so the float
// accumulation sequence never depends on map iteration order.
func (r *Report) Merge(sub *Report) {
	r.Time += sub.Time
	r.Energy += sub.Energy
	r.Comps += sub.Comps
	r.NoCBytes += sub.NoCBytes
	r.FetchDecodeTime += sub.FetchDecodeTime
	r.LMSpillBytes += sub.LMSpillBytes
	r.RemoteBytes += sub.RemoteBytes
	r.ElidedBytes += sub.ElidedBytes
	r.OOCChunks += sub.OOCChunks
	r.StagedBytes += sub.StagedBytes
	for i := range specs {
		if st := sub.PerOp[descriptor.OpCode(i)]; st != nil {
			r.opStats(descriptor.OpCode(i)).add(st)
		}
	}
}

// add accumulates o into st.
func (st *OpStats) add(o *OpStats) {
	st.Invocations += o.Invocations
	st.Time += o.Time
	st.Energy += o.Energy
	st.Flops += o.Flops
	st.Bytes += o.Bytes
}

func (r *Report) opStats(op descriptor.OpCode) *OpStats {
	st := r.PerOp[op]
	if st == nil {
		st = &OpStats{}
		r.PerOp[op] = st
	}
	return st
}

// Run executes the descriptor encoded at base: the hardware flow of §2.2-2.3.
// The CR command must be CmdStart; on completion the layer writes CmdDone.
// Execution is functional (data in the space is really transformed) and
// modelled (the report carries time and energy).
func (l *Layer) Run(s *phys.Space, base phys.Addr) (*Report, error) {
	slot, err := s.ViewBytes(base, descriptor.SlotBytes)
	if err != nil {
		return nil, err
	}
	if err := started(slot, base); err != nil {
		return nil, err
	}
	d, err := descriptor.Decode(s, base)
	if err != nil {
		return nil, err
	}
	prog, err := l.compile(d, planWindow)
	if err != nil {
		return nil, err
	}
	return l.launch(prog, s, base, slot)
}

// launch runs a compiled program under its launch span against the
// descriptor started at base in s, completes by writing CmdDone through slot,
// the caller's view of base, and returns the program's price. A failed launch
// returns no report.
func (l *Layer) launch(prog *Program, s *phys.Space, base phys.Addr, slot []byte) (*Report, error) {
	tb := l.tr.Buffer(telemetry.TrackAccel)
	defer tb.Release()
	tb.Begin(telemetry.SpanLaunch, "descriptor")
	err := l.exec(prog, s, tb)
	if err == nil {
		err = descriptor.SetCommand(slot, base, descriptor.CmdDone)
	}
	if err != nil {
		tb.End(telemetry.SpanLaunch, 0)
		return nil, err
	}
	rep := prog.Report()
	tb.End2(telemetry.SpanLaunch, rep.Time,
		telemetry.Arg{Key: "comps", Val: rep.Comps},
		telemetry.Arg{Key: "noc_bytes", Val: int64(rep.NoCBytes)})
	l.noteLaunch(rep)
	return rep, nil
}

// RunModel prices a descriptor as Run would, but schedules and executes
// nothing, and each LOOP collapses to one template per body pass scaled by
// the trip count (every iteration has identical cost), so paper-scale
// problems cost microseconds to evaluate. Used by the experiment harness.
func (l *Layer) RunModel(d *descriptor.Descriptor) (*Report, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	var lw lowering
	if err := l.lower(d, planCollapse, &lw); err != nil {
		return nil, err
	}
	rep, err := lw.price(l.cfg.CU.FetchDecodeTime(d))
	if err != nil {
		return nil, err
	}
	l.noteLaunch(rep)
	return rep, nil
}

// iterDispatch is the amortised per-iteration initiation cost: the decode
// unit dispatches iterations round-robin over the tiles.
func (l *Layer) iterDispatch() units.Seconds {
	return l.cfg.IterDispatchLatency / units.Seconds(l.cfg.Tiles)
}

// price fills the template's sub-report: what one instance of the pass costs
// on the model. The comps' workloads come from their parameters alone;
// chained intermediates move through tile-local memory over the NoC instead
// of round-tripping through DRAM.
func (l *Layer) price(t *nodeTemplate, pass []descriptor.Comp) {
	if len(pass) == 0 {
		t.err = fmt.Errorf("accel: empty pass")
		return
	}
	var nocTime units.Seconds
	var nocEnergy units.Joules
	lmCap := l.cfg.LMBytes * units.Bytes(l.cfg.Tiles)
	// fromPrev is what the link from the previous comp took off this one's
	// input stream.
	var fromPrev units.Bytes
	next := t.comps[0].Work()
	for i, in := range pass {
		w := next
		adjusted := w
		adjusted.InStream -= fromPrev
		fromPrev = 0
		if i+1 < len(pass) {
			// Chaining: producer i hands its output to consumer i+1 through
			// tile local memory (paper Figure 12a). Remove the DRAM round trip
			// and charge the NoC instead. The intermediate is distributed
			// across all tiles, so the transfer proceeds over Tiles one-hop
			// links in parallel, and a sizeable fraction never leaves its
			// producing tile at all.
			next = t.comps[i+1].Work()
			chained := min(w.OutStream, next.InStream)
			// Chained data is buffered in the tile local memories; anything
			// beyond their aggregate capacity spills to DRAM after all
			// (store-and-forward in LM-sized chunks would serialise the
			// stages, which the hardware avoids by spilling).
			if chained > lmCap {
				t.spill += chained - lmCap
				chained = lmCap
			}
			adjusted.OutStream -= chained
			fromPrev = chained
			perLink := chained / units.Bytes(l.cfg.Tiles)
			tt, e := l.cfg.Mesh.Transfer(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}, perLink)
			nocTime += tt
			nocEnergy += e * units.Joules(l.cfg.Tiles) / 2 // ~half stays tile-local
			t.noc += chained
			// The DRAM store of the producer and load of the consumer both
			// disappear.
			t.elided += 2 * chained
		}
		c, err := l.cfg.OpCost(in.Op, adjusted)
		if err != nil {
			t.err = err
			return
		}
		// Remote-stack buffers stream over the inter-stack links instead of
		// the local TSVs (paper §3.3: data should reside in the LMS).
		if remote := l.cfg.remoteBytes(t.comps[i].Args); remote > 0 {
			extraT, extraE := l.cfg.remotePenalty(remote)
			c.Time += extraT
			c.Energy += extraE
			t.remote += remote
		}
		t.add(in.Op, w, c)
	}
	t.time += nocTime
	t.energy += nocEnergy
	if t.dispatch {
		t.time += l.iterDispatch()
	}
	if t.scale > 1 {
		t.scaleBy(t.scale)
	}
}

// add prices one invocation into the sub-report, keeping ops in op-table
// order.
func (t *nodeTemplate) add(op descriptor.OpCode, w Work, c Cost) {
	i, found := slices.BinarySearchFunc(t.ops, op, func(o opCost, op descriptor.OpCode) int { return cmp.Compare(o.op, op) })
	if !found {
		t.ops = slices.Insert(t.ops, i, opCost{op: op})
	}
	st := &t.ops[i].OpStats
	st.Invocations++
	st.Time += c.Time
	st.Energy += c.Energy
	st.Flops += w.Flops
	st.Bytes += w.Total()
	t.time += c.Time
	t.energy += c.Energy
	t.ncomps++
}

// scaleBy multiplies every accumulated quantity by n (a model-collapsed
// node stands for n identical iterations).
func (t *nodeTemplate) scaleBy(n int64) {
	t.time *= units.Seconds(n)
	t.energy *= units.Joules(n)
	t.ncomps *= n
	t.noc *= units.Bytes(n)
	t.spill *= units.Bytes(n)
	t.remote *= units.Bytes(n)
	t.elided *= units.Bytes(n)
	for i := range t.ops {
		st := &t.ops[i].OpStats
		st.Invocations *= n
		st.Time *= units.Seconds(n)
		st.Energy *= units.Joules(n)
		st.Flops *= units.Flops(n)
		st.Bytes *= units.Bytes(n)
	}
}

// RunPlain is a convenience for host-free tests: it encodes the descriptor,
// starts it, and runs it.
func (l *Layer) RunPlain(s *phys.Space, d *descriptor.Descriptor, base phys.Addr) (*Report, error) {
	if err := d.Encode(s, base); err != nil {
		return nil, err
	}
	if err := descriptor.WriteCommand(s, base, descriptor.CmdStart); err != nil {
		return nil, err
	}
	return l.Run(s, base)
}
