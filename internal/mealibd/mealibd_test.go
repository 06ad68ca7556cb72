// End-to-end tests of the mealibd service: real unix sockets, the wire
// client, and the shared runtime underneath. The headline check is the
// multi-tenant CHAIN workload — 16 concurrent clients each running the SAR
// image-formation shape (RESMP feeding FFT under a hardware loop) under a
// memory quota, every result bit-identical to a serial in-process run of the
// same data.
package mealibd_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibd"
	"mealib/internal/mealibd/client"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// startServer brings a server up on a unix socket with telemetry on, and
// tears it down (asserting a clean shutdown) with the
// test. mut adjusts the server config before construction.
func startServer(t *testing.T, mut func(*mealibd.Config)) (*mealibrt.Runtime, string) {
	t.Helper()
	rcfg := mealibrt.DefaultConfig()
	rcfg.Tracer = telemetry.New()
	rt, err := mealibrt.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mealibd.Config{Runtime: rt}
	if mut != nil {
		mut(&cfg)
	}
	srv, err := mealibd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr := filepath.Join(t.TempDir(), "mealibd.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v, want nil on clean shutdown", err)
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Errorf("after the server closed: %v", err)
		}
	})
	return rt, addr
}

// statsReply mirrors the MsgStats JSON payload.
type statsReply struct {
	Tenant  string                `json:"tenant"`
	Session mealibrt.SessionStats `json:"session"`
	Runtime mealibrt.Stats        `json:"runtime"`
	Metrics map[string]int64      `json:"metrics"`
}

func fetchStats(t *testing.T, cl *client.Client) statsReply {
	t.Helper()
	js, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var st statsReply
	if err := json.Unmarshal(js, &st); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	return st
}

// waitStats polls the stats RPC until cond holds (backpressure states are
// reached asynchronously; launches take wall-clock time to admit).
func waitStats(t *testing.T, cl *client.Client, what string, cond func(statsReply) bool) statsReply {
	t.Helper()
	// Bounded attempt count instead of a wall-clock deadline: 10k polls at
	// 1ms spacing gives the same ~10s budget without consulting time.Now.
	var st statsReply
	for attempt := 0; attempt < 10000; attempt++ {
		st = fetchStats(t, cl)
		if cond(st) {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s (stats: %+v)", what, st.Session)
	return st
}

// The CHAIN shape from the microbenchmark suite: chainIters rows of chainNIn
// complex samples resampled to chainN and FFT'd in place.
const (
	chainNIn   = 768
	chainN     = 1024
	chainIters = 32
)

// chainInput derives a deterministic complex input block from seed.
func chainInput(seed uint64) []complex64 {
	vs := make([]complex64, chainNIn*chainIters)
	s := seed*2862933555777941757 + 3037000493
	next := func() float32 {
		s = s*6364136223846793005 + 1442695040888963407
		return float32(int32(s>>33)) / (1 << 28)
	}
	for i := range vs {
		vs[i] = complex(next(), next())
	}
	return vs
}

// chainDesc builds the two-pass looped descriptor over the given bases.
func chainDesc(ra, ia phys.Addr) (*descriptor.Descriptor, error) {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(chainIters); err != nil {
		return nil, err
	}
	if err := d.AddComp(descriptor.OpRESMP, accel.ResmpArgs{
		NIn: chainNIn, NOut: chainN,
		Kind: accel.ResmpComplex + int64(kernels.InterpLinear),
		Src:  ra, Dst: ia,
		LoopStrideSrc: accel.Lin(8 * chainNIn), LoopStrideDst: accel.Lin(8 * chainN),
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, accel.FFTArgs{
		N: chainN, HowMany: 1, Src: ia, Dst: ia,
		LoopStrideSrc: accel.Lin(8 * chainN), LoopStrideDst: accel.Lin(8 * chainN),
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d, nil
}

// chainBytes is the workload's data footprint — what a tenant's quota must
// cover to run it.
const chainBytes = units.Bytes(8 * (chainNIn + chainN) * chainIters)

// chainLocal runs CHAIN serially in-process — the reference results.
func chainLocal(t *testing.T, r *mealibrt.Runtime, in []complex64) []complex64 {
	t.Helper()
	ra, err := r.MemAlloc(8 * chainNIn * chainIters)
	if err != nil {
		t.Fatal(err)
	}
	ia, err := r.MemAlloc(8 * chainN * chainIters)
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.StoreComplex64s(0, in); err != nil {
		t.Fatal(err)
	}
	d, err := chainDesc(ra.PA(), ia.PA())
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.AccPlanDescriptor(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, err := ia.LoadComplex64s(0, chainN*chainIters)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(); err != nil {
		t.Fatal(err)
	}
	if err := r.MemFree(ia); err != nil {
		t.Fatal(err)
	}
	if err := r.MemFree(ra); err != nil {
		t.Fatal(err)
	}
	return out
}

// chainRemote runs CHAIN through the wire client and returns the rows.
func chainRemote(cl *client.Client, in []complex64) ([]complex64, error) {
	ra, err := cl.Alloc(8 * chainNIn * chainIters)
	if err != nil {
		return nil, err
	}
	ia, err := cl.Alloc(8 * chainN * chainIters)
	if err != nil {
		return nil, err
	}
	if err := client.Store(ra, 0, in); err != nil {
		return nil, err
	}
	d, err := chainDesc(phys.Addr(ra.PA()), phys.Addr(ia.PA()))
	if err != nil {
		return nil, err
	}
	p, err := cl.Plan(d)
	if err != nil {
		return nil, err
	}
	rep, err := p.Execute()
	if err != nil {
		return nil, err
	}
	if rep.Comps == 0 {
		return nil, fmt.Errorf("report carries no computations: %+v", rep)
	}
	out, err := client.Load[complex64](ia, 0, chainN*chainIters)
	if err != nil {
		return nil, err
	}
	if err := p.Destroy(); err != nil {
		return nil, err
	}
	if err := ia.Free(); err != nil {
		return nil, err
	}
	if err := ra.Free(); err != nil {
		return nil, err
	}
	return out, nil
}

// TestConcurrentChainClients is the service's acceptance workload: 16
// tenants over one unix socket endpoint, each running CHAIN under a quota
// that exactly covers its two buffers, every result bit-identical to the
// serial in-process reference, with per-tenant accounting visible over the
// stats RPC.
func TestConcurrentChainClients(t *testing.T) {
	rt, addr := startServer(t, nil)
	const clients = 16
	want := make([][]complex64, clients)
	for i := range want {
		want[i] = chainLocal(t, rt, chainInput(uint64(i+1)))
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				tenant := fmt.Sprintf("t%02d", i)
				cl, err := client.Dial(client.Config{
					Network: "unix", Addr: addr, Tenant: tenant, Quota: chainBytes,
				})
				if err != nil {
					return err
				}
				defer cl.Close()
				got, err := chainRemote(cl, chainInput(uint64(i+1)))
				if err != nil {
					return err
				}
				for j := range got {
					if got[j] != want[i][j] {
						return fmt.Errorf("client %d: element %d = %v, want %v (not bit-identical to serial run)", i, j, got[j], want[i][j])
					}
				}
				js, err := cl.Stats()
				if err != nil {
					return err
				}
				var st statsReply
				if err := json.Unmarshal(js, &st); err != nil {
					return err
				}
				if st.Tenant != tenant {
					return fmt.Errorf("stats tenant = %q, want %q", st.Tenant, tenant)
				}
				if st.Session.Invocations < 1 {
					return fmt.Errorf("session invocations = %d, want >= 1", st.Session.Invocations)
				}
				if st.Metrics["session."+tenant+".submits"] < 1 {
					return fmt.Errorf("per-tenant metric missing from stats: %v", st.Metrics)
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
	if got := rt.Stats().Invocations; got < clients {
		t.Errorf("runtime invocations = %d, want >= %d", got, clients)
	}
}

// remoteAxpy installs y += alpha*x over fresh client buffers and returns the
// plan with its y buffer.
func remoteAxpy(t *testing.T, cl *client.Client, alpha float32, n int) (*client.Plan, *client.Buffer) {
	t.Helper()
	x, err := cl.Alloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	y, err := cl.Alloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 7)
		ys[i] = 1
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, ys); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(n), Alpha: alpha, X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := cl.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	return p, y
}

// remoteSlowPlan installs a long-running no-op (alpha=0 AXPY under a large
// hardware loop) used to hold a flight in flight while backpressure builds.
func remoteSlowPlan(t *testing.T, cl *client.Client, n, iters int) *client.Plan {
	t.Helper()
	x, err := cl.Alloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	y, err := cl.Alloc(units.Bytes(4 * n))
	if err != nil {
		t.Fatal(err)
	}
	// The static verifier rejects reads of never-written memory.
	if err := x.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(uint32(iters)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: int64(n), Alpha: 0, X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	p, err := cl.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRemoteQuotaError checks the typed quota sentinel crosses the wire.
func TestRemoteQuotaError(t *testing.T) {
	_, addr := startServer(t, nil)
	cl, err := client.Dial(client.Config{
		Network: "unix", Addr: addr, Tenant: "broke", Quota: 64 * units.KiB,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Alloc(128 * units.KiB); !errors.Is(err, mealibrt.ErrQuotaExceeded) {
		t.Fatalf("over-quota alloc: got %v, want ErrQuotaExceeded", err)
	}
	b, err := cl.Alloc(64 * units.KiB)
	if err != nil {
		t.Fatalf("in-quota alloc after denial: %v", err)
	}
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if st := fetchStats(t, cl); st.Session.QuotaDenied != 1 {
		t.Errorf("QuotaDenied = %d, want 1", st.Session.QuotaDenied)
	}
}

// TestRemoteQueueFull drives a session into backpressure over the wire:
// MaxInFlight 1 and MaxQueued 1, one slow flight admitted, one launch
// queued — the third submission's Wait must fail with the typed queue-full
// sentinel while the first two complete normally.
func TestRemoteQueueFull(t *testing.T) {
	// Batching would coalesce the small probes into one launch; this test is
	// about admission, so disable it.
	_, addr := startServer(t, func(c *mealibd.Config) { c.BatchMax = 1 })
	cl, err := client.Dial(client.Config{
		Network: "unix", Addr: addr, Tenant: "burst", MaxInFlight: 1, MaxQueued: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	slow := remoteSlowPlan(t, cl, 1<<18, 1<<12)
	pa, ya := remoteAxpy(t, cl, 2, 64)
	pb, _ := remoteAxpy(t, cl, 3, 64)

	ts, err := slow.Submit()
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, cl, "slow flight admission", func(st statsReply) bool {
		return st.Session.Inflight == 1
	})
	ta, err := pa.Submit()
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, cl, "second launch to queue", func(st statsReply) bool {
		return st.Session.Queued == 1
	})
	tb, err := pb.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Wait(); !errors.Is(err, mealibrt.ErrQueueFull) {
		t.Fatalf("third submission: got %v, want ErrQueueFull", err)
	}
	if _, err := ta.Wait(); err != nil {
		t.Fatalf("queued launch: %v", err)
	}
	if _, err := ts.Wait(); err != nil {
		t.Fatalf("slow launch: %v", err)
	}
	ys, err := ya.LoadFloat32s(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ys {
		if want := 1 + 2*float32(i%7); v != want {
			t.Fatalf("y[%d] = %v, want %v", i, v, want)
		}
	}
	st := fetchStats(t, cl)
	if st.Session.QueueFull != 1 {
		t.Errorf("QueueFull = %d, want 1", st.Session.QueueFull)
	}
	if st.Session.Invocations != 2 {
		t.Errorf("Invocations = %d, want 2 (rejected launch must not run)", st.Session.Invocations)
	}
}

// TestBatchCoalescing submits four small disjoint launches back to back:
// the batcher must merge them into one flight (each report carrying the
// member count), with the coalescing visible in the server metrics and the
// results indistinguishable from unbatched execution.
func TestBatchCoalescing(t *testing.T) {
	_, addr := startServer(t, nil)
	cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "batchy"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const members = 4
	plans := make([]*client.Plan, members)
	ys := make([]*client.Buffer, members)
	for i := range plans {
		plans[i], ys[i] = remoteAxpy(t, cl, float32(i+1), 256)
	}
	tickets := make([]*client.Ticket, members)
	for i, p := range plans {
		tk, err := p.Submit()
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		rep, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Batched != members {
			t.Errorf("ticket %d: Batched = %d, want %d", i, rep.Batched, members)
		}
	}
	for i, y := range ys {
		vs, err := y.LoadFloat32s(0, 256)
		if err != nil {
			t.Fatal(err)
		}
		alpha := float32(i + 1)
		for j, v := range vs {
			if want := 1 + alpha*float32(j%7); v != want {
				t.Fatalf("member %d: y[%d] = %v, want %v", i, j, v, want)
			}
		}
	}
	st := fetchStats(t, cl)
	if st.Session.Invocations != 1 {
		t.Errorf("Invocations = %d, want 1 (four members, one merged flight)", st.Session.Invocations)
	}
	if st.Metrics["mealibd.batched_launches"] != 1 {
		t.Errorf("batched_launches = %d, want 1", st.Metrics["mealibd.batched_launches"])
	}
	if st.Metrics["mealibd.coalesced_descriptors"] != members {
		t.Errorf("coalesced_descriptors = %d, want %d", st.Metrics["mealibd.coalesced_descriptors"], members)
	}
}

// TestStoreAfterSubmitOrder pins the wire order of submit-then-store with
// batching on: the batched launch must consume the data it was submitted
// against, so a later store to its input flushes the batch and waits for the
// flight instead of overtaking the coalesced launch.
func TestStoreAfterSubmitOrder(t *testing.T) {
	_, addr := startServer(t, nil) // batching on (default BatchMax)
	cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "order"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 64
	x, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 7)
		ys[i] = 1
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, ys); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 2, X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := cl.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := p.Submit() // batchable: sits in the batch, unflushed
	if err != nil {
		t.Fatal(err)
	}
	// This store conflicts with the batched member's reads: it must land
	// after the launch, not before it.
	if err := x.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	vs, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if want := 1 + 2*float32(i%7); v != want {
			t.Fatalf("y[%d] = %v, want %v (store overtook the batched launch)", i, v, want)
		}
	}
	// The store itself did land — x holds the zeros now.
	xv, err := x.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range xv {
		if v != 0 {
			t.Fatalf("x[%d] = %v, want 0 (the post-submit store must still execute)", i, v)
		}
	}
}

// TestFreeBeforeWait frees a launch's input right after submitting it, while
// the submission is still queued in admission, then immediately recycles the
// range with a zero-filled allocation: the free must wait out the launch, so
// the flight computes from the original data, never the recycled bytes.
func TestFreeBeforeWait(t *testing.T) {
	_, addr := startServer(t, func(c *mealibd.Config) { c.BatchMax = 1 })
	cl, err := client.Dial(client.Config{
		Network: "unix", Addr: addr, Tenant: "freefast", MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 64
	slow := remoteSlowPlan(t, cl, 1<<18, 1<<12)
	x, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	y, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 7)
		ys[i] = 1
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := y.StoreFloat32s(0, ys); err != nil {
		t.Fatal(err)
	}
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 2, X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := cl.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := slow.Submit()
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, cl, "slow flight admission", func(st statsReply) bool {
		return st.Session.Inflight == 1
	})
	// Queues behind the session cap: the launch is pending, not in flight.
	tk, err := p.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Free(); err != nil {
		t.Fatal(err)
	}
	// Recycle: a fresh allocation of the same size lands on the freed range
	// (buddy allocator) — scribble zeros over it.
	z, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	vs, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if want := 1 + 2*float32(i%7); v != want {
			t.Fatalf("y[%d] = %v, want %v (free released the input under a pending launch)", i, v, want)
		}
	}
	if _, err := ts.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDestroyBeforeWait destroys a plan right after submitting it while the
// submission is still queued: the destroy must wait for the launch to drain
// instead of racing its Submit, and the ticket's Wait must still succeed.
func TestDestroyBeforeWait(t *testing.T) {
	_, addr := startServer(t, func(c *mealibd.Config) { c.BatchMax = 1 })
	cl, err := client.Dial(client.Config{
		Network: "unix", Addr: addr, Tenant: "impatient", MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 64
	slow := remoteSlowPlan(t, cl, 1<<18, 1<<12)
	p, y := remoteAxpy(t, cl, 3, n)
	ts, err := slow.Submit()
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, cl, "slow flight admission", func(st statsReply) bool {
		return st.Session.Inflight == 1
	})
	tk, err := p.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(); err != nil {
		t.Fatalf("destroy of a plan with a pending launch: %v", err)
	}
	if _, err := tk.Wait(); err != nil {
		t.Fatalf("wait after destroy: %v (destroy must drain the pending launch, not race it)", err)
	}
	vs, err := y.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if want := 1 + 3*float32(i%7); v != want {
			t.Fatalf("y[%d] = %v, want %v", i, v, want)
		}
	}
	if _, err := ts.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmissionOrderPreserved submits a producer and a dependent consumer
// back to back without waiting in between: the per-connection ordering must
// keep the data dependency intact even though admission is asynchronous.
func TestSubmissionOrderPreserved(t *testing.T) {
	// BatchMax 1 forces both descriptors onto the direct async path where the
	// ordering logic (not batch compatibility) is what's under test.
	_, addr := startServer(t, func(c *mealibd.Config) { c.BatchMax = 1 })
	cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "ordered"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const n = 1 << 12
	// producer: y += 2x; consumer: y += 3x — same y, so order matters:
	// y = 1 + 5*(i%7) only if both run, producer first or second equally
	// (addition commutes), so instead chain through a copy: consumer reads
	// the producer's output buffer as its x.
	x, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Alloc(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 5)
	}
	if err := x.StoreFloat32s(0, xs); err != nil {
		t.Fatal(err)
	}
	if err := mid.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	if err := out.StoreFloat32s(0, make([]float32, n)); err != nil {
		t.Fatal(err)
	}
	mkAxpy := func(alpha float32, xb, yb *client.Buffer) *client.Plan {
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: n, Alpha: alpha, X: phys.Addr(xb.PA()), Y: phys.Addr(yb.PA()), IncX: 1, IncY: 1,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		p, err := cl.Plan(d)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	producer := mkAxpy(2, x, mid)   // mid = 2x
	consumer := mkAxpy(3, mid, out) // out = 3*mid = 6x — only if producer ran first
	tp, err := producer.Submit()
	if err != nil {
		t.Fatal(err)
	}
	tc, err := consumer.Submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Wait(); err != nil {
		t.Fatal(err)
	}
	vs, err := out.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vs {
		if want := 6 * float32(i%5); v != want {
			t.Fatalf("out[%d] = %v, want %v (dependent submission ran out of order)", i, v, want)
		}
	}
}

// TestRemoteOverCapacityError checks the typed over-capacity sentinel
// crosses the wire, and that it stays distinct from the quota sentinel:
// with out-of-core off, an allocation past the stack's physical capacity
// is a capacity fact, not a quota decision. With staging carved out, the
// same allocation succeeds host-backed and the session's stats report the
// virtual/resident split.
func TestRemoteOverCapacityError(t *testing.T) {
	startSmall := func(t *testing.T, staging units.Bytes) string {
		t.Helper()
		rcfg := mealibrt.DefaultConfig()
		rcfg.Driver.DataSize = 1 * units.MiB
		rcfg.Driver.StagingSize = staging
		rt, err := mealibrt.New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := mealibd.New(mealibd.Config{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		addr := filepath.Join(t.TempDir(), "mealibd.sock")
		ln, err := net.Listen("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("server close: %v", err)
			}
			if err := <-done; err != nil {
				t.Errorf("Serve returned %v, want nil on clean shutdown", err)
			}
			if err := rt.CheckInvariants(); err != nil {
				t.Errorf("after the server closed: %v", err)
			}
		})
		return addr
	}

	t.Run("no staging", func(t *testing.T) {
		addr := startSmall(t, 0)
		cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "big"})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = cl.Alloc(2 * units.MiB) // twice the 1 MiB data space
		if !errors.Is(err, mealibrt.ErrOverCapacity) {
			t.Fatalf("over-capacity alloc: got %v, want ErrOverCapacity", err)
		}
		if errors.Is(err, mealibrt.ErrQuotaExceeded) {
			t.Fatalf("over-capacity alloc must not read as a quota error: %v", err)
		}
	})

	t.Run("staging enables host-backed", func(t *testing.T) {
		addr := startSmall(t, 128*units.KiB)
		cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "big"})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		b, err := cl.Alloc(2 * units.MiB)
		if err != nil {
			t.Fatalf("host-backed alloc with staging on: %v", err)
		}
		st := fetchStats(t, cl)
		if st.Session.VirtualBytes != 2*units.MiB {
			t.Errorf("VirtualBytes = %d, want %d", st.Session.VirtualBytes, 2*units.MiB)
		}
		if st.Session.ResidentBytes != 0 {
			t.Errorf("ResidentBytes = %d, want 0 for a host-backed buffer", st.Session.ResidentBytes)
		}
		if err := b.Free(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRemoteLoadCountFitsTheWire: a load's count crosses the wire as 32
// bits. A larger one is refused before it is sent; truncated, 2^32+2 read
// back as 2 elements and no error.
func TestRemoteLoadCountFitsTheWire(t *testing.T) {
	_, addr := startServer(t, nil)
	cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "wide"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b, err := cl.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1<<32 + 2, 1 << 32, -1} {
		if got, err := b.LoadFloat32s(0, n); err == nil {
			t.Errorf("a load of %d elements returned %d and no error", n, len(got))
		}
	}
	if got, err := client.Load[complex64](b, 0, 8); err != nil || len(got) != 8 {
		t.Errorf("a load of the whole buffer after the refused ones = %d elements, %v", len(got), err)
	}
}

// wireWords returns the 32-bit words of a typed slice, the real word of a
// complex64 before its imaginary one.
func wireWords(v any) []uint32 {
	var out []uint32
	switch v := v.(type) {
	case []float32:
		for _, x := range v {
			out = append(out, math.Float32bits(x))
		}
	case []int32:
		for _, x := range v {
			out = append(out, uint32(x))
		}
	case []complex64:
		for _, x := range v {
			out = append(out, math.Float32bits(real(x)), math.Float32bits(imag(x)))
		}
	}
	return out
}

// wireRoundTrip stores v through the client and loads it back.
func wireRoundTrip[T phys.Elem](t *testing.T, b *client.Buffer, v []T) {
	t.Helper()
	if err := client.Store(b, 4, v); err != nil {
		t.Fatal(err)
	}
	got, err := client.Load[T](b, 4, len(v))
	if err != nil {
		t.Fatal(err)
	}
	if want := wireWords(v); !slices.Equal(wireWords(got), want) {
		t.Errorf("%T round trip = %#x, want %#x", v, wireWords(got), want)
	}
}

// TestRemoteElemBitsRoundTrip: every element type's NaN payloads, -0 and
// subnormals cross the wire and the space and come back bit for bit, at an
// offset that is not 8-byte aligned.
func TestRemoteElemBitsRoundTrip(t *testing.T) {
	_, addr := startServer(t, nil)
	cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "bits"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	b, err := cl.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	patterns := []uint32{
		0x80000000,                                     // -0
		0x7fc00000, 0xffc00001, 0x7f800001, 0x7fbfffff, // quiet and signalling NaNs with payloads
		0x00000001, 0x807fffff, // subnormals
		0x7f800000, 0x3f800000, // +Inf, 1
	}
	f32 := make([]float32, len(patterns))
	i32 := make([]int32, len(patterns))
	c64 := make([]complex64, len(patterns))
	for i, p := range patterns {
		f32[i] = math.Float32frombits(p)
		i32[i] = int32(p)
		c64[i] = complex(math.Float32frombits(p), math.Float32frombits(patterns[len(patterns)-1-i]))
	}
	wireRoundTrip(t, b, f32)
	wireRoundTrip(t, b, i32)
	wireRoundTrip(t, b, c64)
}

// TestRemoteAccessStaysInBounds is the wire half of the tenant-isolation
// regression: the store and load offsets come raw from the client frame, so
// a tenant aiming one at the buffer next door (below or above its own) must
// get a remote error, must leave the neighbour's bytes alone, and must keep
// a usable connection.
func TestRemoteAccessStaysInBounds(t *testing.T) {
	const size = 4 * units.KiB
	_, addr := startServer(t, nil)
	var bufs []*client.Buffer
	for _, tenant := range []string{"a", "b", "c"} {
		cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: tenant, Quota: size})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		b, err := cl.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		bufs = append(bufs, b)
	}
	sort.Slice(bufs, func(i, j int) bool { return bufs[i].PA() < bufs[j].PA() })
	below, mid, above := bufs[0], bufs[1], bufs[2]
	ones := make([]int32, size/4)
	for i := range ones {
		ones[i] = 1
	}
	for _, b := range bufs {
		if err := client.Store(b, 0, ones); err != nil {
			t.Fatal(err)
		}
	}
	for what, off := range map[string]units.Bytes{
		"negative":     -units.Bytes(mid.PA() - below.PA()),
		"past the end": units.Bytes(above.PA() - mid.PA()),
	} {
		if err := client.Store(mid, off, []int32{9, 9, 9, 9}); err == nil {
			t.Errorf("%s store at %d succeeded", what, off)
		}
		if _, err := client.Load[int32](mid, off, 4); err == nil {
			t.Errorf("%s load at %d succeeded", what, off)
		}
	}
	for i, b := range bufs {
		got, err := client.Load[int32](b, 0, len(ones))
		if err != nil {
			t.Fatalf("buffer %d's connection after the refused accesses: %v", i, err)
		}
		if !slices.Equal(got, ones) {
			t.Errorf("buffer %d changed under an out-of-range access through its neighbour", i)
		}
	}
}

// TestFreedBufferStalesPlan is the wire half of the stale-plan rule (its
// in-process half is mealibrt's test of the same name): tenant a frees a buffer
// its installed plan names, tenant b is handed the same physical range, and a's
// next launch must come back as the typed ErrPlanStale, carried by
// CodePlanStale, with b's bytes untouched and both connections usable.
//
// Gate (check.sh): the compiled plan.
func TestFreedBufferStalesPlan(t *testing.T) {
	_, addr := startServer(t, nil)
	dial := func(tenant string) *client.Client {
		t.Helper()
		cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		return cl
	}
	a, b := dial("a"), dial("b")
	ones := []float32{1, 1, 1, 1}
	alloc := func(cl *client.Client) *client.Buffer {
		t.Helper()
		buf, err := cl.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if err := buf.StoreFloat32s(0, ones); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	x, y := alloc(a), alloc(a)
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: 4, Alpha: 1, X: phys.Addr(x.PA()), Y: phys.Addr(y.PA()), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	p, err := a.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	freed := y.PA()
	if err := y.Free(); err != nil {
		t.Fatal(err)
	}
	theirs := alloc(b)
	if theirs.PA() != freed {
		t.Fatalf("b's buffer landed at %#x, not in the range a freed (%#x): the test needs the allocator to recycle it", theirs.PA(), freed)
	}
	_, err = p.Execute()
	got, lerr := theirs.LoadFloat32s(0, 4)
	if lerr != nil {
		t.Fatal(lerr)
	}
	if !errors.Is(err, mealibrt.ErrPlanStale) || !reflect.DeepEqual(got, ones) {
		t.Fatalf("remote Execute of a plan over a freed buffer: error %v, and tenant b's buffer reads %v; want ErrPlanStale and %v", err, got, ones)
	}
	if err := p.Destroy(); err != nil {
		t.Errorf("destroying the stale plan: %v", err)
	}
	if _, err := x.LoadFloat32s(0, 4); err != nil {
		t.Errorf("tenant a's connection after the refusal: %v", err)
	}
}

// TestBatchMemberFailsAlone: the batcher re-installs its members as one merged
// plan, and a merge the session cannot install is not a verdict on anybody. The
// members then launch through their own plans, in submission order: a member
// whose plan went stale gets ErrPlanStale, typed, and the one next to it runs;
// members that fit the instruction memory one by one and not together all run.
//
// Gate (check.sh): the one-walk install.
func TestBatchMemberFailsAlone(t *testing.T) {
	dial := func(t *testing.T) *client.Client {
		t.Helper()
		_, addr := startServer(t, nil)
		cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "a"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		return cl
	}
	filled := func(v float32, n int) []float32 {
		out := make([]float32, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	alloc := func(t *testing.T, cl *client.Client, n int) *client.Buffer {
		t.Helper()
		buf, err := cl.Alloc(units.Bytes(4 * n))
		if err != nil {
			t.Fatal(err)
		}
		if err := buf.StoreFloat32s(0, filled(1, n)); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// axpys plans y += x as `passes` passes of n elements each.
	axpys := func(t *testing.T, cl *client.Client, x, y *client.Buffer, passes, n int) *client.Plan {
		t.Helper()
		d := &descriptor.Descriptor{}
		for i := 0; i < passes; i++ {
			off := phys.Addr(4 * n * i)
			if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
				N: int64(n), Alpha: 1, X: phys.Addr(x.PA()) + off, Y: phys.Addr(y.PA()) + off, IncX: 1, IncY: 1,
			}.Params()); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
		}
		p, err := cl.Plan(d)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	submitBoth := func(t *testing.T, p1, p2 *client.Plan) (err1, err2 error) {
		t.Helper()
		t1, err := p1.Submit()
		if err != nil {
			t.Fatal(err)
		}
		t2, err := p2.Submit()
		if err != nil {
			t.Fatal(err)
		}
		_, err1 = t1.Wait()
		_, err2 = t2.Wait()
		return err1, err2
	}

	t.Run("stale member", func(t *testing.T) {
		cl := dial(t)
		y1 := alloc(t, cl, 4)
		good := axpys(t, cl, alloc(t, cl, 4), y1, 1, 4)
		y2 := alloc(t, cl, 4)
		bad := axpys(t, cl, alloc(t, cl, 4), y2, 1, 4)
		if err := y2.Free(); err != nil {
			t.Fatal(err)
		}
		goodErr, badErr := submitBoth(t, good, bad)
		got, err := y1.LoadFloat32s(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		if goodErr != nil || !errors.Is(badErr, mealibrt.ErrPlanStale) || !reflect.DeepEqual(got, []float32{2, 2, 2, 2}) {
			t.Fatalf("a good plan batched with a stale one: the good one's Wait returned %v and its y reads %v, the stale one's Wait returned %v; want nil, [2 2 2 2] and ErrPlanStale",
				goodErr, got, badErr)
		}
	})

	t.Run("oversize merge", func(t *testing.T) {
		cl := dial(t)
		// 200 passes encode to some 36 KiB of the 64 KiB instruction memory; two
		// such members batch (their data is 1600 bytes each) and cannot merge.
		const passes = 200
		var ys [2]*client.Buffer
		var plans [2]*client.Plan
		for i := range plans {
			ys[i] = alloc(t, cl, passes)
			plans[i] = axpys(t, cl, alloc(t, cl, passes), ys[i], passes, 1)
		}
		err1, err2 := submitBoth(t, plans[0], plans[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("two members whose merge exceeds the instruction memory: Waits returned %v and %v, want both to run alone", err1, err2)
		}
		for i, y := range ys {
			got, err := y.LoadFloat32s(0, passes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, filled(2, passes)) {
				t.Errorf("member %d did not run: y[:4] = %v", i, got[:4])
			}
		}
	})
}

// launchOutcome is what one tenant saw: every report and error in order, and
// the bytes of the buffers it compares.
type launchOutcome struct {
	reps []mealibd.Report
	errs []string
	mem  [][]float32
}

func (o *launchOutcome) add(rep *mealibd.Report, err error) {
	if rep != nil {
		o.reps = append(o.reps, *rep)
	}
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *launchOutcome) load(t *testing.T, b *client.Buffer, n int) {
	t.Helper()
	vs, err := b.LoadFloat32s(0, n)
	if err != nil {
		t.Fatal(err)
	}
	o.mem = append(o.mem, vs)
}

// TestExecuteIsSubmitThenWait: Execute is one round trip (MsgExecute) where
// it used to be Submit then Wait, and nothing else may tell them apart. Each
// case runs once with Execute and once with Submit + Wait, on a fresh server
// each: the reports (Batched included), the errors and every buffer's bytes
// must be the same.
//
// Gate (check.sh): the mealibd wire.
func TestExecuteIsSubmitThenWait(t *testing.T) {
	type launchFunc func(*client.Plan) (*mealibd.Report, error)
	execute := func(p *client.Plan) (*mealibd.Report, error) { return p.Execute() }
	submitWait := func(p *client.Plan) (*mealibd.Report, error) {
		tk, err := p.Submit()
		if err != nil {
			return nil, err
		}
		return tk.Wait()
	}
	const n = 256
	cases := []struct {
		name string
		run  func(t *testing.T, cl *client.Client, launch launchFunc, o *launchOutcome)
	}{
		{"lone plan", func(t *testing.T, cl *client.Client, launch launchFunc, o *launchOutcome) {
			p, y := remoteAxpy(t, cl, 2, n)
			o.add(launch(p))
			o.load(t, y, n)
		}},
		{"joins two pending submits", func(t *testing.T, cl *client.Client, launch launchFunc, o *launchOutcome) {
			var plans [3]*client.Plan
			var ys [3]*client.Buffer
			for i := range plans {
				plans[i], ys[i] = remoteAxpy(t, cl, float32(i+1), n)
			}
			var tickets [2]*client.Ticket
			for i := range tickets {
				tk, err := plans[i].Submit()
				if err != nil {
					t.Fatal(err)
				}
				tickets[i] = tk
			}
			rep, err := launch(plans[2])
			if err != nil || rep.Batched != 3 {
				t.Errorf("launch behind two pending submits: Batched %+v, error %v; want 3, nil", rep, err)
			}
			o.add(rep, err)
			for _, tk := range tickets {
				o.add(tk.Wait())
			}
			for _, y := range ys {
				o.load(t, y, n)
			}
		}},
		{"stale plan", func(t *testing.T, cl *client.Client, launch launchFunc, o *launchOutcome) {
			var bufs [2]*client.Buffer
			for i := range bufs {
				b, err := cl.Alloc(16)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.StoreFloat32s(0, []float32{1, 2, 3, 4}); err != nil {
					t.Fatal(err)
				}
				bufs[i] = b
			}
			d := &descriptor.Descriptor{}
			if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
				N: 4, Alpha: 1, X: phys.Addr(bufs[0].PA()), Y: phys.Addr(bufs[1].PA()), IncX: 1, IncY: 1,
			}.Params()); err != nil {
				t.Fatal(err)
			}
			d.AddEndPass()
			p, err := cl.Plan(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := bufs[1].Free(); err != nil {
				t.Fatal(err)
			}
			rep, err := launch(p)
			if !errors.Is(err, mealibrt.ErrPlanStale) {
				t.Errorf("launch of a plan over a freed buffer: %v, want ErrPlanStale", err)
			}
			o.add(rep, err)
			o.load(t, bufs[0], 4)
		}},
		{"unknown plan", func(t *testing.T, cl *client.Client, launch launchFunc, o *launchOutcome) {
			p, y := remoteAxpy(t, cl, 2, n)
			if err := p.Destroy(); err != nil {
				t.Fatal(err)
			}
			rep, err := launch(p)
			if err == nil {
				t.Errorf("launch of a destroyed plan succeeded")
			}
			o.add(rep, err)
			o.load(t, y, n)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]launchOutcome
			for i, launch := range []launchFunc{execute, submitWait} {
				_, addr := startServer(t, nil)
				cl, err := client.Dial(client.Config{Network: "unix", Addr: addr, Tenant: "t"})
				if err != nil {
					t.Fatal(err)
				}
				tc.run(t, cl, launch, &got[i])
				if err := cl.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("Execute and Submit + Wait differ:\nExecute:       %+v %q\nSubmit + Wait: %+v %q",
					got[0].reps, got[0].errs, got[1].reps, got[1].errs)
			}
		})
	}
}
