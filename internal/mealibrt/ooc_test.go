package mealibrt

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/units"
)

// oocConfig shrinks the data space to 1 MiB so "larger than physical stack
// capacity" is cheap to provoke, and carves the given staging region.
func oocConfig(staging units.Bytes) *Config {
	cfg := DefaultConfig()
	cfg.Driver.DataSize = 1 * units.MiB
	cfg.Driver.StagingSize = staging
	return cfg
}

func fillPattern(t *testing.T, b *Buffer, n int, seed float32) []float32 {
	t.Helper()
	v := make([]float32, n)
	for i := range v {
		v[i] = seed + float32(i%251)*0.5 - float32(i%7)
	}
	if err := b.StoreFloat32s(0, v); err != nil {
		t.Fatal(err)
	}
	return v
}

func oocAxpyPlan(t *testing.T, rt *Runtime, n int64, alpha float32, x, y *Buffer) *Plan {
	t.Helper()
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: alpha, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := rt.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func wantBitIdentical(t *testing.T, got, want []float32, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (bits %#x), want %v (bits %#x)",
				label, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// Differential (b) of the issue: an AXPY whose operands are twice the whole
// data space runs out-of-core and matches the host reference bit for bit.
func TestOOCOversizedAXPYMatchesHostReference(t *testing.T) {
	rt, err := New(oocConfig(256 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 19 // 2 MiB per vector vs a 1 MiB data space
	x, err := rt.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := rt.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if x.Resident() || y.Resident() {
		t.Fatalf("oversized buffers should be host-backed (resident: x=%v y=%v)", x.Resident(), y.Resident())
	}
	xs := fillPattern(t, x, n, 1)
	ys := fillPattern(t, y, n, -3)

	const alpha = float32(1.5)
	inv, err := oocAxpyPlan(t, rt, n, alpha, x, y).Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inv.Report.OOCChunks < 2 {
		t.Fatalf("OOCChunks = %d, want a multi-chunk schedule", inv.Report.OOCChunks)
	}
	if inv.Report.StagedBytes == 0 {
		t.Fatal("StagedBytes = 0, want staging traffic accounted")
	}
	if inv.Report.Time <= 0 {
		t.Fatal("model time not accounted")
	}

	want := make([]float32, n)
	for i := range want {
		want[i] = ys[i] + alpha*xs[i]
	}
	got, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, got, want, "oversized AXPY")
}

// Differential (a): for operands that fit the stack, forcing the same data
// host-backed and staging it through the tiles produces bytes identical to
// the in-core run — including under a LOOP descriptor, which the chunker
// decomposes into shifted per-iteration units.
func TestOOCBitIdenticalToInCore(t *testing.T) {
	const iters = 4
	const n = 4096 // per-iteration vector: 16 KiB
	total := iters * n

	loopPlan := func(rt *Runtime, x, y *Buffer) *Plan {
		d := &descriptor.Descriptor{}
		if err := d.AddLoop(iters); err != nil {
			t.Fatal(err)
		}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: n, Alpha: 2.25, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
			LoopStrideX: accel.Lin(4 * n), LoopStrideY: accel.Lin(4 * n),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		d.AddEndLoop()
		p, err := rt.AccPlanDescriptor(d)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	run := func(hostBacked bool) []float32 {
		rt, err := New(oocConfig(64 * units.KiB))
		if err != nil {
			t.Fatal(err)
		}
		alloc := rt.MemAlloc
		if hostBacked {
			alloc = rt.MemAllocHost
		}
		x, err := alloc(units.Bytes(4 * total))
		if err != nil {
			t.Fatal(err)
		}
		y, err := alloc(units.Bytes(4 * total))
		if err != nil {
			t.Fatal(err)
		}
		if x.Resident() == hostBacked {
			t.Fatalf("Resident() = %v with hostBacked=%v", x.Resident(), hostBacked)
		}
		fillPattern(t, x, total, 5)
		fillPattern(t, y, total, -2)
		inv, err := loopPlan(rt, x, y).Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if hostBacked && inv.Report.OOCChunks == 0 {
			t.Fatal("host-backed run reported no chunks")
		}
		if !hostBacked && inv.Report.OOCChunks != 0 {
			t.Fatal("in-core run reported out-of-core chunks")
		}
		out, err := y.LoadFloat32s(0, total)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	wantBitIdentical(t, run(true), run(false), "out-of-core vs in-core")
}

// Differential (c): prefetching tile N+1 under tile N's execution must beat
// the synchronous stage-execute-writeback schedule in model time on the
// same chunk schedule.
func TestOOCPrefetchFasterThanSync(t *testing.T) {
	run := func(noPrefetch bool) (units.Seconds, int64) {
		cfg := oocConfig(256 * units.KiB)
		cfg.NoPrefetch = noPrefetch
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const n = 1 << 19
		x, err := rt.MemAlloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		y, err := rt.MemAlloc(4 * n)
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, x, n, 1)
		fillPattern(t, y, n, -3)
		inv, err := oocAxpyPlan(t, rt, n, 1.5, x, y).Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return inv.Report.Time, inv.Report.OOCChunks
	}
	pre, preChunks := run(false)
	sync, syncChunks := run(true)
	if preChunks != syncChunks {
		t.Fatalf("chunk schedules differ: prefetch %d vs sync %d", preChunks, syncChunks)
	}
	if !(pre < sync) {
		t.Fatalf("prefetch model time %v not faster than synchronous %v", pre, sync)
	}
}

// The typed failure mode: without a staging region, an over-capacity
// MemAlloc and any MemAllocHost fail with ErrOverCapacity — distinguishable
// by errors.Is from a quota denial.
func TestOverCapacityTypedError(t *testing.T) {
	rt, err := New(oocConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.MemAlloc(2 * units.MiB); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("no-staging over-capacity alloc: got %v, want ErrOverCapacity", err)
	}
	if _, err := rt.MemAllocHost(units.MiB); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("no-staging MemAllocHost: got %v, want ErrOverCapacity", err)
	}

	// A fragmentation failure (request fits the pool's capacity but not its
	// free space) must NOT silently go host-backed: residency is decided by
	// capacity, not by transient occupancy.
	rt3, err := New(oocConfig(256 * units.KiB)) // 768 KiB left in the pool
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt3.MemAlloc(512 * units.KiB); err != nil {
		t.Fatal(err)
	}
	if _, err := rt3.MemAlloc(512 * units.KiB); err == nil {
		t.Fatal("exhausted pool alloc unexpectedly succeeded")
	} else if errors.Is(err, ErrOverCapacity) {
		t.Fatalf("exhaustion misreported as over-capacity: %v", err)
	}
}

// A session quota bounds the tenant's virtual footprint: a host-backed
// fallback allocation still charges it, and stats split resident from
// virtual bytes.
func TestSessionVirtualQuotaAccounting(t *testing.T) {
	rt, err := New(oocConfig(256 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(SessionConfig{Name: "t", MemQuota: 4 * units.MiB})
	if err != nil {
		t.Fatal(err)
	}
	resident, err := s.MemAlloc(64 * units.KiB)
	if err != nil {
		t.Fatal(err)
	}
	if !resident.Resident() {
		t.Fatal("64 KiB allocation should be stack-resident")
	}
	oversized, err := s.MemAlloc(2 * units.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if oversized.Resident() {
		t.Fatal("2 MiB allocation should be host-backed")
	}
	st := s.Stats()
	if st.VirtualBytes != 64*units.KiB+2*units.MiB || st.ResidentBytes != 64*units.KiB {
		t.Fatalf("stats = virtual %v resident %v, want %v / %v",
			st.VirtualBytes, st.ResidentBytes, 64*units.KiB+2*units.MiB, 64*units.KiB)
	}
	// The quota counts virtual bytes: ~2.06 MiB in use, 4 MiB quota — a
	// further 2 MiB host-backed request must be denied by quota, not
	// capacity.
	if _, err := s.MemAlloc(2 * units.MiB); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota host-backed alloc: got %v, want ErrQuotaExceeded", err)
	}
	if err := s.MemFree(oversized); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.VirtualBytes != 64*units.KiB || st.ResidentBytes != 64*units.KiB {
		t.Fatalf("stats after free = virtual %v resident %v, want both %v",
			st.VirtualBytes, st.ResidentBytes, 64*units.KiB)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Session.Close racing an in-flight staged launch (the issue's -race
// satellite): Close must drain the flight, the flight's result must be
// intact, and post-close operations must fail with ErrSessionClosed.
func TestSessionCloseRacesStagedLaunch(t *testing.T) {
	rt, err := New(oocConfig(256 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(SessionConfig{Name: "racer"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 19 // 2 MiB vectors vs a 1 MiB data space: host-backed
	x, err := s.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := s.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if x.Resident() || y.Resident() {
		t.Fatal("want host-backed operands for a staged launch")
	}
	xs := fillPattern(t, x, n, 2)
	ys := fillPattern(t, y, n, 7)

	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 0.5, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := s.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := p.Submit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Close while the staged chunk schedule is (likely) in flight: it
		// must wait the flight out, not tear the buffers from under it.
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	inv, err := pi.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inv.Report.OOCChunks == 0 {
		t.Fatal("expected a staged (out-of-core) launch")
	}
	wg.Wait()
	// The write-back completed before Close released the buffers: the final
	// bytes must have been the full AXPY result. (The mappings are gone now;
	// verify via the physical space was the flight's job — here we check the
	// session is truly closed instead.)
	if _, err := s.MemAlloc(4096); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("post-close alloc: got %v, want ErrSessionClosed", err)
	}
	_ = xs
	_ = ys
}

// TestOOCOversizedGEMVMatchesHostReference exercises the chunker's exact
// GEMV row split: the matrix is twice the data space and host-backed while
// x and y stay stack-resident, so only A's row blocks stream through the
// staging region. Per-row float64 accumulation makes row splits exact, so
// the result must match the host kernel bit for bit — beta != 0 also
// exercises the read-modify-write handling of y.
func TestOOCOversizedGEMVMatchesHostReference(t *testing.T) {
	rt, err := New(oocConfig(256 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	const (
		m     = 2048
		n     = 256 // 1 KiB rows; A = 2 MiB vs a 1 MiB data space
		alpha = float32(0.75)
		beta  = float32(0.5)
	)
	a, err := rt.MemAlloc(4 * m * n)
	if err != nil {
		t.Fatal(err)
	}
	if a.Resident() {
		t.Fatal("2 MiB matrix should be host-backed")
	}
	x, err := rt.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := rt.MemAlloc(4 * m)
	if err != nil {
		t.Fatal(err)
	}
	if !x.Resident() || !y.Resident() {
		t.Fatal("small vectors should stay stack-resident")
	}
	as := fillPattern(t, a, m*n, 2)
	xs := fillPattern(t, x, n, -1)
	ys := fillPattern(t, y, m, 5)

	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpGEMV, accel.GemvArgs{
		M: m, N: n, Alpha: alpha, Beta: beta,
		A: a.PA(), Lda: n, X: x.PA(), Y: y.PA(),
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := rt.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := p.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if inv.Report.OOCChunks < 2 {
		t.Fatalf("OOCChunks = %d, want a multi-chunk row-split schedule", inv.Report.OOCChunks)
	}

	want := append([]float32(nil), ys...)
	if err := kernels.Sgemv(m, n, alpha, as, n, xs, beta, want); err != nil {
		t.Fatal(err)
	}
	got, err := y.LoadFloat32s(0, m)
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, got, want, "oversized GEMV")
}

// TestOOCFFTBatchSplitBitIdentical pins the chunker's FFT batch split: the
// same batched transform runs in-core (resident operands) and out-of-core
// (the identical data forced host-backed), and the outputs must agree bit
// for bit — whole transforms are never split, so chunking cannot perturb
// the butterflies.
func TestOOCFFTBatchSplitBitIdentical(t *testing.T) {
	rt, err := New(oocConfig(64 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	const (
		fftN    = 512
		howMany = 64 // 256 KiB total vs 32 KiB staging halves
	)
	in := make([]complex64, fftN*howMany)
	for i := range in {
		in[i] = complex(float32(i%97)*0.25-3, float32(i%41)*0.5)
	}
	run := func(alloc func(units.Bytes) (*Buffer, error), wantResident bool) []complex64 {
		t.Helper()
		src, err := alloc(8 * fftN * howMany)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := alloc(8 * fftN * howMany)
		if err != nil {
			t.Fatal(err)
		}
		if src.Resident() != wantResident {
			t.Fatalf("Resident() = %v, want %v", src.Resident(), wantResident)
		}
		if err := src.StoreComplex64s(0, in); err != nil {
			t.Fatal(err)
		}
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpFFT, accel.FFTArgs{
			N: fftN, HowMany: howMany, Src: src.PA(), Dst: dst.PA(),
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		p, err := rt.AccPlanDescriptor(d)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := p.Execute(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !wantResident && inv.Report.OOCChunks < 2 {
			t.Fatalf("OOCChunks = %d, want a batch-split schedule", inv.Report.OOCChunks)
		}
		out, err := dst.LoadComplex64s(0, fftN*howMany)
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.MemFree(src); err != nil {
			t.Fatal(err)
		}
		if err := rt.MemFree(dst); err != nil {
			t.Fatal(err)
		}
		return out
	}
	// The in-core run fits: 2 x 256 KiB against the ~832 KiB left after the
	// staging carve-out.
	inCore := run(rt.MemAlloc, true)
	ooc := run(rt.MemAllocHost, false)
	for i := range inCore {
		if inCore[i] != ooc[i] {
			t.Fatalf("element %d: in-core %v != out-of-core %v", i, inCore[i], ooc[i])
		}
	}
}

// TestOOCDotUnchunkable pins the reduction rule: a DOT's single running
// float64 sum cannot be split without changing accumulation order, so an
// oversized DOT fails at plan time with the typed chunker sentinel instead
// of silently computing a differently-rounded result.
func TestOOCDotUnchunkable(t *testing.T) {
	rt, err := New(oocConfig(256 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 19 // 2 MiB per vector
	x, err := rt.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := rt.MemAlloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rt.MemAlloc(4)
	if err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpDOT, accel.DotArgs{
		N: n, X: x.PA(), Y: y.PA(), Out: out.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if _, err := rt.AccPlanDescriptor(d); !errors.Is(err, accel.ErrUnchunkable) {
		t.Fatalf("oversized DOT: got %v, want ErrUnchunkable", err)
	}
}

// TestOOCPriceIsAConstantOfThePlan: an out-of-core plan is priced once, at
// install, from its schedule; every launch returns that price, the same
// *Report, and a second install of the same descriptor prices it the same.
// An ordinary plan's launches return its program's price likewise.
func TestOOCPriceIsAConstantOfThePlan(t *testing.T) {
	ctx := context.Background()
	rt, err := New(oocConfig(128 * units.KiB))
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 16 // 256 KiB a vector, over 64 KiB staging halves
	hx, err := rt.MemAllocHost(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := rt.MemAllocHost(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	fillPattern(t, hx, n, 1)
	fillPattern(t, hy, n, -3)
	ooc := axpyOver(t, rt.def, hx, hy, n, 1)
	if ooc.ooc == nil || ooc.price == nil {
		t.Fatalf("want an out-of-core plan priced at install (schedule %v, price %v)", ooc.ooc != nil, ooc.price)
	}
	incore, _, _ := sessAxpyPlan(t, rt.def, 2, 256)
	for _, tc := range []struct {
		name  string
		p     *Plan
		price *accel.Report
	}{{"out-of-core", ooc, ooc.price}, {"in-core", incore, incore.prog.Report()}} {
		for i := 0; i < 2; i++ {
			inv, err := tc.p.Execute(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if inv.Report != tc.price {
				t.Errorf("%s launch %d: report %p, want the plan's price %p", tc.name, i, inv.Report, tc.price)
			}
		}
	}
	if got := ooc.price.OOCChunks; got != int64(len(ooc.ooc.Chunks)) {
		t.Errorf("the price counts %d chunks, the schedule has %d", got, len(ooc.ooc.Chunks))
	}
	again := axpyOver(t, rt.def, hx, hy, n, 1)
	if again.price == ooc.price || !reflect.DeepEqual(again.price, ooc.price) {
		t.Errorf("a second install priced the same schedule %+v, want a report of its own equal to %+v", again.price, ooc.price)
	}
}
