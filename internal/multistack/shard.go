package multistack

import (
	"context"
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/sparse"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// shard is one stack's slice of the matrix plus its working vectors.
type shard struct {
	stack  int
	lo, hi int // owned row range
	nnz    int
	rowPtr *mealibrt.Buffer // rebased to the shard (rows+1 entries)
	colIdx *mealibrt.Buffer // global column indices
	values *mealibrt.Buffer
	x      *mealibrt.Buffer // full-length working vector (local copy)
	y      *mealibrt.Buffer // owned result segment
	plan   *mealibrt.Plan
}

func (sh *shard) rows() int { return sh.hi - sh.lo }

// Sharded is a CSR matrix distributed across the system's stacks: shard k
// holds its row block's CSR arrays, the full-length working vector x, and
// the owned slice of the result y, all resident on stack k. Column indices
// stay global, so each shard's SpMV is exactly the single-stack kernel
// over its rows — accumulation order and therefore results are unchanged
// by the sharding.
type Sharded struct {
	sys    *System
	n      int
	nnz    int
	part   sparse.Partition
	shards []*shard
	// ghost[d][s] is the modeled exchange volume from stack s to stack d:
	// 4 bytes for every distinct column in shard d's pattern owned by s.
	ghost [][]units.Bytes
	stats RunStats
}

// IterStats is the model outcome of one Step.
type IterStats struct {
	// ComputeTime is the compute phase: the N per-shard launches run
	// concurrently, so it is the maximum invocation time.
	ComputeTime units.Seconds
	// ExchangeTime is the interconnect makespan of the exchange phase.
	ExchangeTime units.Seconds
	// ExchangeBytes is the modeled ghost traffic this iteration.
	ExchangeBytes units.Bytes
	// Energy totals accelerator, invocation-overhead, idle-host and link
	// energy for the iteration.
	Energy units.Joules
}

// RunStats accumulates IterStats across Steps.
type RunStats struct {
	Iterations    int
	Time          units.Seconds
	ComputeTime   units.Seconds
	ExchangeTime  units.Seconds
	ExchangeBytes units.Bytes
	Energy        units.Joules
}

// Shard distributes the matrix: nnz-balanced row blocks, one block per
// stack, CSR arrays rebased per shard and uploaded to the owning stack. A
// placement refined for edge cut goes through ShardWith (sparse.RefineGreedy).
func (s *System) Shard(m *sparse.CSR) (*Sharded, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("multistack: iterated SpMV needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	part, err := sparse.RowBlocks(m, s.cfg.Stacks)
	if err != nil {
		return nil, err
	}
	return s.ShardWith(m, part)
}

// ShardWith distributes the matrix under an explicit partition (tests and
// placement experiments).
func (s *System) ShardWith(m *sparse.CSR, part sparse.Partition) (*Sharded, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := part.Validate(m.Rows); err != nil {
		return nil, err
	}
	if part.Parts() != s.cfg.Stacks {
		return nil, fmt.Errorf("multistack: partition has %d parts for %d stacks", part.Parts(), s.cfg.Stacks)
	}
	sh := &Sharded{sys: s, n: m.Rows, nnz: m.NNZ(), part: part}
	// seen marks columns counted into the current shard's ghost volume;
	// stamped with the shard index+1 so it resets without clearing.
	seen := make([]int32, m.Cols)
	for k := 0; k < s.cfg.Stacks; k++ {
		lo, hi := part.Range(k)
		rows := hi - lo
		base := m.RowPtr[lo]
		nnz := int(m.RowPtr[hi] - base)
		rebased := make([]int32, rows+1)
		for i := 0; i <= rows; i++ {
			rebased[i] = m.RowPtr[lo+i] - base
		}
		sd := &shard{stack: k, lo: lo, hi: hi, nnz: nnz}
		var err error
		alloc := func(n units.Bytes) *mealibrt.Buffer {
			if err != nil {
				return nil
			}
			var b *mealibrt.Buffer
			b, err = s.rt.MemAllocOn(k, n)
			return b
		}
		sd.rowPtr = alloc(units.Bytes(4 * (rows + 1)))
		sd.colIdx = alloc(units.Bytes(4 * max(nnz, 1)))
		sd.values = alloc(units.Bytes(4 * max(nnz, 1)))
		sd.x = alloc(units.Bytes(4 * m.Cols))
		sd.y = alloc(units.Bytes(4 * max(rows, 1)))
		if err != nil {
			return nil, fmt.Errorf("multistack: shard %d: %w", k, err)
		}
		if err := mealibrt.Store(sd.rowPtr, 0, rebased); err != nil {
			return nil, err
		}
		if nnz > 0 {
			if err := mealibrt.Store(sd.colIdx, 0, m.ColIdx[base:base+int32(nnz)]); err != nil {
				return nil, err
			}
			if err := mealibrt.Store(sd.values, 0, m.Values[base:base+int32(nnz)]); err != nil {
				return nil, err
			}
		}
		sh.shards = append(sh.shards, sd)
		// Ghost volume: distinct remote-owned columns this shard gathers.
		ghost := make([]units.Bytes, s.cfg.Stacks)
		stamp := int32(k + 1)
		for e := base; e < base+int32(nnz); e++ {
			c := m.ColIdx[e]
			if seen[c] == stamp {
				continue
			}
			seen[c] = stamp
			owner := part.OwnerOf(int(c))
			if owner != k {
				ghost[owner] += 4
			}
		}
		sh.ghost = append(sh.ghost, ghost)
	}
	return sh, nil
}

// N returns the vector length.
func (sh *Sharded) N() int { return sh.n }

// NNZ returns the matrix non-zero count.
func (sh *Sharded) NNZ() int { return sh.nnz }

// Partition returns the row partition in effect.
func (sh *Sharded) Partition() sparse.Partition { return sh.part }

// GhostBytes returns the modeled per-exchange traffic from stack src into
// stack dst's working vector — what one Step sends over the (src, dst)
// link. The conservation gate compares the interconnect's ledger against
// these independently derived figures.
func (sh *Sharded) GhostBytes(dst, src int) units.Bytes { return sh.ghost[dst][src] }

// ExchangeBytesPerStep returns the total modeled traffic of one exchange.
func (sh *Sharded) ExchangeBytesPerStep() units.Bytes {
	var total units.Bytes
	for d := range sh.ghost {
		for s := range sh.ghost[d] {
			total += sh.ghost[d][s]
		}
	}
	return total
}

// BuildPlans creates the per-shard SPMV plans: shard k's launch runs on
// stack k's accelerator layer over stack-k-resident operands, computing the
// owned slice y_k = semiring-SpMV(A_k, x_k) with each row's accumulator
// seeded by bias. Plans are built once and resubmitted every Step.
func (sh *Sharded) BuildPlans(semiring int64, bias float32) error {
	for _, sd := range sh.shards {
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpSPMV, accel.SpmvArgs{
			M: int64(sd.rows()), Cols: int64(sh.n), NNZ: int64(sd.nnz),
			RowPtr: sd.rowPtr.PA(), ColIdx: sd.colIdx.PA(), Values: sd.values.PA(),
			X: sd.x.PA(), Y: sd.y.PA(),
			Semiring: semiring, Bias: bias,
		}.Params()); err != nil {
			return err
		}
		d.AddEndPass()
		p, err := sh.sys.rt.AccPlanDescriptorOn(sd.stack, d)
		if err != nil {
			return fmt.Errorf("multistack: plan for shard %d: %w", sd.stack, err)
		}
		sd.plan = p
	}
	return nil
}

// SetX seeds every stack's working vector with v (the iteration's x_0).
func (sh *Sharded) SetX(v []float32) error {
	if len(v) != sh.n {
		return fmt.Errorf("multistack: x has %d elements, want %d", len(v), sh.n)
	}
	for _, sd := range sh.shards {
		if err := mealibrt.Store(sd.x, 0, v); err != nil {
			return err
		}
	}
	return nil
}

// X reads the current working vector (stack 0's copy; after an exchange all
// copies are identical).
func (sh *Sharded) X() ([]float32, error) {
	return mealibrt.Load[float32](sh.shards[0].x, 0, sh.n)
}

// Step runs one iteration: the N shard launches concurrently (compute
// phase), then the exchange — functionally, every updated segment y_k is
// written into every stack's working vector; in the model, each (src, dst)
// ghost transfer is scheduled on the interconnect at the phase start, in
// (src, dst) order, and the phase ends at the latest completion.
func (sh *Sharded) Step(ctx context.Context) (IterStats, error) {
	if sh.shards[0].plan == nil {
		return IterStats{}, fmt.Errorf("multistack: BuildPlans not called")
	}
	s := sh.sys
	// Compute phase: submit all, wait all. Shard footprints are disjoint,
	// so admission overlaps the flights; model time is the slowest shard.
	pending := make([]*mealibrt.Launch, len(sh.shards))
	for i, sd := range sh.shards {
		pi, err := sd.plan.Submit(ctx)
		if err != nil {
			return IterStats{}, fmt.Errorf("multistack: shard %d submit: %w", i, err)
		}
		pending[i] = pi
	}
	var st IterStats
	for i, pi := range pending {
		inv, err := pi.Wait(ctx)
		if err != nil {
			return IterStats{}, fmt.Errorf("multistack: shard %d: %w", i, err)
		}
		if t := inv.TotalTime(); t > st.ComputeTime {
			st.ComputeTime = t
		}
		st.Energy += inv.TotalEnergy()
	}

	// Functional exchange: whole-segment device copies keep every stack's
	// working vector complete and bit-identical to the serial iteration's
	// x. These are stack-to-stack DMAs — they bypass the host coherence
	// model (no dirty bytes, no wbinvd on the next launch); the
	// interconnect model below prices the traffic they stand for.
	for _, sd := range sh.shards {
		if sd.rows() == 0 {
			continue
		}
		for _, dst := range sh.shards {
			if err := s.rt.DeviceCopyFloat32s(dst.x, units.Bytes(4*sd.lo), sd.y, 0, sd.rows()); err != nil {
				return IterStats{}, err
			}
		}
	}

	// Modeled exchange: ghost transfers scheduled at the phase start in
	// (src, dst) order — deterministic contention on the port timelines.
	linkE0 := s.net.Energy()
	t0 := s.clock + st.ComputeTime
	end := t0
	tb := s.tr.Buffer(telemetry.TrackXStack)
	defer tb.Release()
	for src := range sh.shards {
		busy0 := s.net.EgressBusy(src)
		for dst := range sh.shards {
			b := sh.ghost[dst][src]
			if b == 0 || src == dst {
				continue
			}
			tb.Begin(telemetry.SpanExchange, fmt.Sprintf("exchange s%d->s%d", src, dst))
			_, sendEnd, err := s.net.Send(src, dst, b, t0)
			if err != nil {
				tb.End(telemetry.SpanExchange, 0)
				return IterStats{}, err
			}
			if sendEnd > end {
				end = sendEnd
			}
			st.ExchangeBytes += b
			s.mPairBytes[src][dst].Add(int64(b))
			tb.End2(telemetry.SpanExchange, sendEnd-t0,
				telemetry.Arg{Key: "bytes", Val: int64(b)}, telemetry.Arg{})
		}
		s.mEgressNS[src].Add(int64(float64(s.net.EgressBusy(src)-busy0) * 1e9))
	}
	st.ExchangeTime = end - t0
	st.Energy += s.net.Energy() - linkE0
	s.clock = end

	sh.stats.Iterations++
	sh.stats.Time += st.ComputeTime + st.ExchangeTime
	sh.stats.ComputeTime += st.ComputeTime
	sh.stats.ExchangeTime += st.ExchangeTime
	sh.stats.ExchangeBytes += st.ExchangeBytes
	sh.stats.Energy += st.Energy
	return st, nil
}

// Stats returns the accumulated run statistics.
func (sh *Sharded) Stats() RunStats { return sh.stats }
