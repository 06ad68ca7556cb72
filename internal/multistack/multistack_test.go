package multistack

import (
	"context"
	"fmt"
	"math"
	"testing"

	"mealib/internal/kernels"
	"mealib/internal/mealibrt"
	"mealib/internal/sparse"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

func testConfig(stacks int) Config {
	rc := mealibrt.DefaultConfig()
	rc.Driver.DataSize = 64 * units.MiB
	return Config{Stacks: stacks, Runtime: rc}
}

// hostIterate is the serial reference: the exact per-row accumulation the
// accelerator kernel performs, iterated with full-vector handoff.
func hostIterate(m *sparse.CSR, x []float32, semiring int64, bias float32, iters int) []float32 {
	cur := append([]float32(nil), x...)
	next := make([]float32, m.Rows)
	for it := 0; it < iters; it++ {
		if err := kernels.SpmvCSRSemiring(m.Rows, m.RowPtr, m.ColIdx, m.Values, cur, next, semiring, bias); err != nil {
			panic(err)
		}
		cur, next = next, cur
	}
	return cur
}

func runSharded(t *testing.T, sys *System, m *sparse.CSR, x []float32, semiring int64, bias float32, iters int) ([]float32, *Sharded) {
	t.Helper()
	sh, err := sys.Shard(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.BuildPlans(semiring, bias); err != nil {
		t.Fatal(err)
	}
	if err := sh.SetX(x); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for it := 0; it < iters; it++ {
		if _, err := sh.Step(ctx); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sh.X()
	if err != nil {
		t.Fatal(err)
	}
	return got, sh
}

func bitEqual(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", what, i, got[i], want[i])
		}
	}
}

// TestShardedMatchesSerial is the core differential: the same iterated
// SpMV, sharded over 1, 2 and 4 stacks, must be bit-identical to the
// serial host reference — plus-times and min-plus both.
func TestShardedMatchesSerial(t *testing.T) {
	m, err := sparse.RGG(1<<12, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.Rows)
	for i := range x {
		x[i] = float32(i%31)*0.125 - 1
	}
	const iters = 5
	want := hostIterate(m, x, kernels.SemiringPlusTimes, 0.25, iters)

	inf := float32(math.Inf(1))
	xd := make([]float32, m.Rows)
	for i := range xd {
		xd[i] = inf
	}
	xd[7] = 0
	wantDist := hostIterate(m, xd, kernels.SemiringMinPlus, inf, iters)

	for _, stacks := range []int{1, 2, 4} {
		sys, err := New(testConfig(stacks))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := runSharded(t, sys, m, x, kernels.SemiringPlusTimes, 0.25, iters)
		bitEqual(t, got, want, "plus-times")

		sysD, err := New(testConfig(stacks))
		if err != nil {
			t.Fatal(err)
		}
		gotDist, _ := runSharded(t, sysD, m, xd, kernels.SemiringMinPlus, inf, iters)
		bitEqual(t, gotDist, wantDist, "min-plus")
	}
}

// minPlusMatrix gives m unit weights plus a zero diagonal (dist' includes
// the node's own previous distance), the BFS-style relaxation operator.
func minPlusMatrix(t *testing.T, m *sparse.CSR) *sparse.CSR {
	t.Helper()
	var entries []sparse.COO
	for i := 0; i < m.Rows; i++ {
		entries = append(entries, sparse.COO{Row: int32(i), Col: int32(i), Val: 0})
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			entries = append(entries, sparse.COO{Row: int32(i), Col: m.ColIdx[k], Val: 1})
		}
	}
	out, err := sparse.FromCOO(m.Rows, m.Cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedMatchesSerialBFSOperator runs the BFS-style relaxation
// operator (unit weights, zero diagonal) sharded over 4 stacks against the
// serial reference.
func TestShardedMatchesSerialBFSOperator(t *testing.T) {
	base, err := sparse.RGG(1<<11, 8, 13)
	if err != nil {
		t.Fatal(err)
	}
	m := minPlusMatrix(t, base)
	inf := float32(math.Inf(1))
	x := make([]float32, m.Rows)
	for i := range x {
		x[i] = inf
	}
	x[0] = 0
	const iters = 8
	want := hostIterate(m, x, kernels.SemiringMinPlus, inf, iters)
	sys, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runSharded(t, sys, m, x, kernels.SemiringMinPlus, inf, iters)
	bitEqual(t, got, want, "min-plus shared matrix")
}

// TestTrafficConservation checks the interconnect ledger against the
// sharder's independently derived ghost volumes: per link and per stack,
// bytes sent == bytes received == steps x ghost bytes.
func TestTrafficConservation(t *testing.T) {
	m, err := sparse.RGG(1<<11, 9, 77)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.Rows)
	for i := range x {
		x[i] = 1
	}
	const iters = 3
	_, sh := runSharded(t, sys, m, x, kernels.SemiringPlusTimes, 0, iters)
	net := sys.Net()
	var totalGhost units.Bytes
	for d := 0; d < 4; d++ {
		var wantIn units.Bytes
		for s := 0; s < 4; s++ {
			if s == d {
				continue
			}
			g := sh.GhostBytes(d, s)
			wantIn += g
			totalGhost += g
			if got := net.PairBytes(s, d); got != iters*g {
				t.Errorf("link %d->%d carried %d bytes, want %d", s, d, got, iters*g)
			}
		}
		if got := net.BytesReceived(d); got != iters*wantIn {
			t.Errorf("stack %d received %d bytes, want %d", d, got, iters*wantIn)
		}
	}
	if totalGhost == 0 {
		t.Fatal("test graph produced no cross-stack traffic")
	}
	var sent, recvd units.Bytes
	for k := 0; k < 4; k++ {
		sent += net.BytesSent(k)
		recvd += net.BytesReceived(k)
	}
	if sent != recvd {
		t.Errorf("conservation: %d sent, %d received", sent, recvd)
	}
	if got := sh.Stats().ExchangeBytes; got != iters*sh.ExchangeBytesPerStep() {
		t.Errorf("stats counted %d exchange bytes, want %d", got, iters*sh.ExchangeBytesPerStep())
	}
}

// TestRefinementReducesModeledTraffic shards the same banded matrix with
// and without greedy refinement: the refined placement must not move more
// ghost bytes, and on an RGG (locality-ordered, uneven row structure) it
// should typically move fewer.
func TestRefinementReducesModeledTraffic(t *testing.T) {
	m, err := sparse.RGG(1<<12, 12, 99)
	if err != nil {
		t.Fatal(err)
	}
	base, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	shBase, err := base.Shard(m)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := sparse.RowBlocks(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := sparse.RefineGreedy(m, blocks, 256)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	shRef, err := ref.ShardWith(m, part)
	if err != nil {
		t.Fatal(err)
	}
	b0, b1 := shBase.ExchangeBytesPerStep(), shRef.ExchangeBytesPerStep()
	if b1 > b0 {
		t.Errorf("refinement raised modeled traffic: %d -> %d bytes/step", b0, b1)
	}
	t.Logf("ghost bytes/step: row blocks %d, refined %d", b0, b1)
}

// TestModelTimelineAdvances checks the engine clock: each Step adds the
// compute phase (max shard invocation) plus the exchange makespan, and
// iterations with traffic have a non-zero exchange phase.
func TestModelTimelineAdvances(t *testing.T) {
	m, err := sparse.RGG(1<<11, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sys.Shard(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.BuildPlans(kernels.SemiringPlusTimes, 0); err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.Rows)
	if err := sh.SetX(x); err != nil {
		t.Fatal(err)
	}
	st, err := sh.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ComputeTime <= 0 {
		t.Error("compute phase took no model time")
	}
	if sh.ExchangeBytesPerStep() > 0 && st.ExchangeTime <= 0 {
		t.Error("exchange moved bytes in zero model time")
	}
	if got := sys.ModelTime(); !units.CloseTo(float64(got), float64(st.ComputeTime+st.ExchangeTime)) {
		t.Errorf("engine clock %v, want %v", got, st.ComputeTime+st.ExchangeTime)
	}
	if st.Energy <= 0 {
		t.Error("iteration consumed no energy")
	}
}

// TestExchangeTelemetry checks exchange spans land on the xstack track and
// the per-link byte counters mirror the interconnect ledger.
func TestExchangeTelemetry(t *testing.T) {
	m, err := sparse.RGG(1<<10, 8, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(2)
	cfg.Tracer = telemetry.New()
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, m.Rows)
	_, sh := runSharded(t, sys, m, x, kernels.SemiringPlusTimes, 0, 2)
	if sh.ExchangeBytesPerStep() == 0 {
		t.Fatal("no traffic to trace")
	}
	if cfg.Tracer.Events() == 0 {
		t.Error("no telemetry events recorded")
	}
	reg := cfg.Tracer.Metrics()
	var counted int64
	for s := 0; s < 2; s++ {
		for d := 0; d < 2; d++ {
			counted += reg.Counter(fmt.Sprintf("xstack.bytes.s%d_to_s%d", s, d)).Value()
		}
	}
	if want := int64(sys.Net().TotalBytes()); counted != want {
		t.Errorf("link byte counters sum to %d, ledger says %d", counted, want)
	}
}

func TestShardErrors(t *testing.T) {
	sys, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rect, err := sparse.FromCOO(2, 3, []sparse.COO{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Shard(rect); err == nil {
		t.Error("non-square matrix accepted")
	}
	m, err := sparse.RGG(64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ShardWith(m, sparse.Partition{Bounds: []int{0, 10, 20, 64}}); err == nil {
		t.Error("3-part partition accepted on 2 stacks")
	}
	sh, err := sys.Shard(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Step(context.Background()); err == nil {
		t.Error("Step before BuildPlans accepted")
	}
	if err := sh.SetX(make([]float32, 3)); err == nil {
		t.Error("wrong-length x accepted")
	}
	if _, err := New(Config{Stacks: 0}); err == nil {
		t.Error("zero stacks accepted")
	}
}
