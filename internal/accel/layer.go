package accel

import (
	"fmt"

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

// Report is the outcome of one descriptor execution.
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

func newReport() *Report {
	return &Report{PerOp: make(map[descriptor.OpCode]*OpStats)}
}

// NewReport returns an empty report for callers outside the layer (the
// runtime's out-of-core driver aggregates per-chunk reports into one).
func NewReport() *Report { return newReport() }

// Merge folds sub into r in deterministic op order (see merge).
func (r *Report) Merge(sub *Report) {
	r.merge(sub)
	r.FetchDecodeTime += sub.FetchDecodeTime
}

func (r *Report) opStats(op descriptor.OpCode) *OpStats {
	st := r.PerOp[op]
	if st == nil {
		st = &OpStats{}
		r.PerOp[op] = st
	}
	return st
}

// add merges a single invocation into the report.
func (r *Report) add(op descriptor.OpCode, w Work, c Cost) {
	st := r.opStats(op)
	st.Invocations++
	st.Time += c.Time
	st.Energy += c.Energy
	st.Flops += w.Flops
	st.Bytes += w.Total()
	r.Time += c.Time
	r.Energy += c.Energy
	r.Comps++
}

// passInstr is one decoded comp within a pass.
type passInstr struct {
	op     descriptor.OpCode
	params descriptor.Params
}

// execFunc evaluates one comp: functionally against a space, or
// analytically via WorkOf.
type execFunc func(op descriptor.OpCode, p descriptor.Params, it IterVec) (Work, error)

// Run executes the descriptor encoded at base: the hardware flow of §2.2-2.3.
// The CR command must be CmdStart; on completion the layer writes CmdDone.
// Execution is functional (data in the space is really transformed) and
// modelled (the report carries time and energy).
func (l *Layer) Run(s *phys.Space, base phys.Addr) (*Report, error) {
	return l.run(s, base, nil)
}

// run is Run with optional wave-granularity hooks (see hooks.go).
func (l *Layer) run(s *phys.Space, base phys.Addr, hooks WaveHooks) (*Report, error) {
	cmd, err := descriptor.ReadCommand(s, base)
	if err != nil {
		return nil, err
	}
	if cmd != descriptor.CmdStart {
		return nil, fmt.Errorf("accel: descriptor at %v not started (command %d)", base, cmd)
	}
	d, err := descriptor.Decode(s, base)
	if err != nil {
		return nil, err
	}
	if err := l.cfg.CU.CheckCapacity(d); err != nil {
		return nil, err
	}
	tb := l.tr.Buffer(telemetry.TrackAccel)
	defer tb.Release()
	tb.Begin(telemetry.SpanLaunch, "descriptor")
	rep, err := l.interpret(d, planExpand, func(op descriptor.OpCode, p descriptor.Params, it IterVec) (Work, error) {
		return execute(s, op, p, it)
	}, tb, hooks)
	if err != nil {
		tb.End(telemetry.SpanLaunch, 0)
		return nil, err
	}
	fd := l.cfg.CU.FetchDecodeTime(d)
	rep.FetchDecodeTime = fd
	rep.Time += fd
	if err := descriptor.WriteCommand(s, base, descriptor.CmdDone); err != nil {
		tb.End(telemetry.SpanLaunch, rep.Time)
		return nil, err
	}
	tb.End2(telemetry.SpanLaunch, rep.Time,
		telemetry.Arg{Key: "comps", Val: rep.Comps},
		telemetry.Arg{Key: "noc_bytes", Val: int64(rep.NoCBytes)})
	l.noteLaunch(rep)
	return rep, nil
}

// RunModel evaluates a descriptor analytically: same plan IR, scheduler,
// chaining and loop accounting as Run, but workloads come from WorkOf
// instead of functional execution, and each LOOP collapses to one
// representative node per body pass scaled by the trip count (every
// iteration of a hardware loop has identical cost; only addresses differ) —
// so paper-scale problems (gigabyte buffers, millions of LOOP iterations)
// cost microseconds to evaluate. Used by the experiment harness.
func (l *Layer) RunModel(d *descriptor.Descriptor) (*Report, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := l.cfg.CU.CheckCapacity(d); err != nil {
		return nil, err
	}
	tb := l.tr.Buffer(telemetry.TrackAccel)
	defer tb.Release()
	tb.Begin(telemetry.SpanLaunch, "descriptor(model)")
	rep, err := l.interpret(d, planCollapse, func(op descriptor.OpCode, p descriptor.Params, _ IterVec) (Work, error) {
		return WorkOf(op, p)
	}, tb, nil)
	if err != nil {
		tb.End(telemetry.SpanLaunch, 0)
		return nil, err
	}
	fd := l.cfg.CU.FetchDecodeTime(d)
	rep.FetchDecodeTime = fd
	rep.Time += fd
	tb.End2(telemetry.SpanLaunch, rep.Time,
		telemetry.Arg{Key: "comps", Val: rep.Comps},
		telemetry.Arg{Key: "noc_bytes", Val: int64(rep.NoCBytes)})
	l.noteLaunch(rep)
	return rep, nil
}

// iterDispatch is the amortised per-iteration initiation cost: the decode
// unit dispatches iterations round-robin over the tiles.
func (l *Layer) iterDispatch() units.Seconds {
	return l.cfg.IterDispatchLatency / units.Seconds(l.cfg.Tiles)
}

// merge folds a node's sub-report into r. Per-op stats merge in op-table
// order so the float accumulation sequence is a pure function of the node
// order — never of map iteration or goroutine completion order. Stats
// without an invocation are a reused sub-report's leftovers (reset).
func (r *Report) merge(sub *Report) {
	r.Time += sub.Time
	r.Energy += sub.Energy
	r.Comps += sub.Comps
	r.NoCBytes += sub.NoCBytes
	r.LMSpillBytes += sub.LMSpillBytes
	r.RemoteBytes += sub.RemoteBytes
	r.ElidedBytes += sub.ElidedBytes
	r.OOCChunks += sub.OOCChunks
	r.StagedBytes += sub.StagedBytes
	for i := range specs {
		op := descriptor.OpCode(i)
		st := sub.PerOp[op]
		if st == nil || st.Invocations == 0 {
			continue
		}
		agg := r.opStats(op)
		agg.Invocations += st.Invocations
		agg.Time += st.Time
		agg.Energy += st.Energy
		agg.Flops += st.Flops
		agg.Bytes += st.Bytes
	}
}

// reset empties r for the next node, keeping its per-op storage.
func (r *Report) reset() {
	perOp := r.PerOp
	if perOp == nil {
		perOp = make(map[descriptor.OpCode]*OpStats)
	}
	for _, st := range perOp {
		*st = OpStats{}
	}
	*r = Report{PerOp: perOp}
}

// runPass executes a node's pass datapath: the comps run in order against the
// space; chained intermediates move through tile-local memory over the NoC
// instead of round-tripping through DRAM. scratch holds two Works per comp.
func (l *Layer) runPass(exec execFunc, nd *planNode, scratch []Work, rep *Report) error {
	pass := nd.pass
	if len(pass) == 0 {
		return fmt.Errorf("accel: empty pass")
	}
	// Two Works per comp: as executed, and adjusted for chaining.
	works, adjusted := scratch[:len(pass)], scratch[len(pass):]
	for i, pi := range pass {
		w, err := exec(pi.op, pi.params, nd.it)
		if err != nil {
			return err
		}
		works[i] = w
	}
	// Chaining: producer i hands its output to consumer i+1 through tile
	// local memory (paper Figure 12a). Remove the DRAM round trip and charge
	// the NoC instead. The intermediate is distributed across all tiles, so
	// the transfer proceeds over Tiles one-hop links in parallel, and a
	// sizeable fraction never leaves its producing tile at all.
	copy(adjusted, works)
	var nocTime units.Seconds
	var nocEnergy units.Joules
	lmCap := l.cfg.LMBytes * units.Bytes(l.cfg.Tiles)
	for i := 0; i+1 < len(pass); i++ {
		chained := adjusted[i].OutStream
		if adjusted[i+1].InStream < chained {
			chained = adjusted[i+1].InStream
		}
		// Chained data is buffered in the tile local memories; anything
		// beyond their aggregate capacity spills to DRAM after all
		// (store-and-forward in LM-sized chunks would serialise the
		// stages, which the hardware avoids by spilling).
		if chained > lmCap {
			rep.LMSpillBytes += chained - lmCap
			chained = lmCap
		}
		adjusted[i].OutStream -= chained
		adjusted[i+1].InStream -= chained
		perLink := chained / units.Bytes(l.cfg.Tiles)
		t, e := l.cfg.Mesh.Transfer(noc.Coord{X: 0, Y: 0}, noc.Coord{X: 1, Y: 0}, perLink)
		nocTime += t
		nocEnergy += e * units.Joules(l.cfg.Tiles) / 2 // ~half stays tile-local
		rep.NoCBytes += chained
		// The DRAM store of the producer and load of the consumer both
		// disappear.
		rep.ElidedBytes += 2 * chained
	}
	for i, pi := range pass {
		c, err := l.cfg.OpCost(pi.op, adjusted[i])
		if err != nil {
			return err
		}
		// Remote-stack buffers stream over the inter-stack links instead of
		// the local TSVs (paper §3.3: data should reside in the LMS).
		remote, err := l.cfg.remoteBytes(pi.op, pi.params)
		if err != nil {
			return err
		}
		if remote > 0 {
			extraT, extraE := l.cfg.remotePenalty(remote)
			c.Time += extraT
			c.Energy += extraE
			rep.RemoteBytes += remote
		}
		rep.add(pi.op, works[i], c)
	}
	rep.Time += nocTime
	rep.Energy += nocEnergy
	return nil
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
