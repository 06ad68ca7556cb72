package exp

// The smoke test behind `mealibd -smoke`: it brings a real mealibd endpoint
// up on a unix socket in a temp directory and drives it through the wire
// client, so the whole service stack — framing, sessions, quotas, fair
// admission, batching, wave pipelining — is on the path.

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

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

// The CHAIN shape (RESMP feeding FFT under a hardware loop) — the smoke
// workload.
const (
	serveChainNIn   = 768
	serveChainN     = 1024
	serveChainIters = 32
)

// serveChainBytes is the workload's data footprint; the smoke runs every
// tenant at exactly this quota.
const serveChainBytes = units.Bytes(8 * (serveChainNIn + serveChainN) * serveChainIters)

// serveChainInput derives a deterministic complex input block from seed.
func serveChainInput(seed uint64) []complex64 {
	vs := make([]complex64, serveChainNIn*serveChainIters)
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

// serveChainDesc builds the two-pass looped descriptor over the given bases.
func serveChainDesc(ra, ia phys.Addr) (*descriptor.Descriptor, error) {
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(serveChainIters); err != nil {
		return nil, err
	}
	if err := d.AddComp(descriptor.OpRESMP, accel.ResmpArgs{
		NIn: serveChainNIn, NOut: serveChainN,
		Kind: accel.ResmpComplex + int64(kernels.InterpLinear),
		Src:  ra, Dst: ia,
		LoopStrideSrc: accel.Lin(8 * serveChainNIn), LoopStrideDst: accel.Lin(8 * serveChainN),
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	if err := d.AddComp(descriptor.OpFFT, accel.FFTArgs{
		N: serveChainN, HowMany: 1, Src: ia, Dst: ia,
		LoopStrideSrc: accel.Lin(8 * serveChainN), LoopStrideDst: accel.Lin(8 * serveChainN),
	}.Params()); err != nil {
		return nil, err
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d, nil
}

// serveEndpoint is one in-process server on a unix socket.
type serveEndpoint struct {
	rt   *mealibrt.Runtime
	srv  *mealibd.Server
	addr string
	dir  string
	done chan error
}

func startServeEndpoint() (*serveEndpoint, error) {
	dir, err := os.MkdirTemp("", "mealibd-*")
	if err != nil {
		return nil, err
	}
	rcfg := mealibrt.DefaultConfig()
	rcfg.Tracer = telemetry.New()
	rcfg.WavePipeline = true
	rt, err := mealibrt.New(rcfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv, err := mealibd.New(mealibd.Config{Runtime: rt})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := filepath.Join(dir, "mealibd.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ep := &serveEndpoint{rt: rt, srv: srv, addr: addr, dir: dir, done: make(chan error, 1)}
	go func() { ep.done <- srv.Serve(ln) }()
	return ep, nil
}

// stop closes the server and reports whether shutdown was clean.
func (ep *serveEndpoint) stop() error {
	defer os.RemoveAll(ep.dir)
	if err := ep.srv.Close(); err != nil {
		return err
	}
	if err := <-ep.done; err != nil {
		return fmt.Errorf("serve exited with %w, want nil on clean shutdown", err)
	}
	return nil
}

// serveChainLocal runs CHAIN serially in-process — the bit-exact reference.
func serveChainLocal(r *mealibrt.Runtime, in []complex64) ([]complex64, error) {
	ra, err := r.MemAlloc(8 * serveChainNIn * serveChainIters)
	if err != nil {
		return nil, err
	}
	defer r.MemFree(ra)
	ia, err := r.MemAlloc(8 * serveChainN * serveChainIters)
	if err != nil {
		return nil, err
	}
	defer r.MemFree(ia)
	if err := ra.StoreComplex64s(0, in); err != nil {
		return nil, err
	}
	d, err := serveChainDesc(ra.PA(), ia.PA())
	if err != nil {
		return nil, err
	}
	p, err := r.AccPlanDescriptor(d)
	if err != nil {
		return nil, err
	}
	defer p.Destroy()
	if _, err := p.Execute(context.Background()); err != nil {
		return nil, err
	}
	return ia.LoadComplex64s(0, serveChainN*serveChainIters)
}

// serveChainRemote runs CHAIN through the wire client.
func serveChainRemote(cl *client.Client, in []complex64) ([]complex64, error) {
	ra, err := cl.Alloc(8 * serveChainNIn * serveChainIters)
	if err != nil {
		return nil, err
	}
	ia, err := cl.Alloc(8 * serveChainN * serveChainIters)
	if err != nil {
		return nil, err
	}
	if err := ra.StoreComplex64s(0, in); err != nil {
		return nil, err
	}
	d, err := serveChainDesc(phys.Addr(ra.PA()), phys.Addr(ia.PA()))
	if err != nil {
		return nil, err
	}
	p, err := cl.Plan(d)
	if err != nil {
		return nil, err
	}
	if _, err := p.Execute(); err != nil {
		return nil, err
	}
	return ia.LoadComplex64s(0, serveChainN*serveChainIters)
}

// ServeSmoke is the service self-test: clients concurrent tenants run the
// CHAIN workload over a unix socket, each under a quota that exactly covers
// its buffers, and every result must be bit-identical to a serial
// in-process run of the same data. It finishes with a clean server
// shutdown; any divergence is an error.
func ServeSmoke(clients int) error {
	if clients <= 0 {
		return fmt.Errorf("exp: smoke needs at least one client, got %d", clients)
	}
	ep, err := startServeEndpoint()
	if err != nil {
		return err
	}
	want := make([][]complex64, clients)
	for i := range want {
		ref, err := serveChainLocal(ep.rt, serveChainInput(uint64(i+1)))
		if err != nil {
			_ = ep.stop() // the client error is the one to report
			return fmt.Errorf("exp: serial reference %d: %w", i, err)
		}
		want[i] = ref
	}
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				cl, err := client.Dial(client.Config{
					Network: "unix", Addr: ep.addr,
					Tenant: fmt.Sprintf("smoke%02d", i), Quota: serveChainBytes,
				})
				if err != nil {
					return err
				}
				defer cl.Close()
				got, err := serveChainRemote(cl, serveChainInput(uint64(i+1)))
				if err != nil {
					return err
				}
				for j := range got {
					if got[j] != want[i][j] {
						return fmt.Errorf("element %d = %v, want %v (not bit-identical to the serial run)", j, got[j], want[i][j])
					}
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			_ = ep.stop() // the client error is the one to report
			return fmt.Errorf("exp: smoke client %d: %w", i, err)
		}
	}
	return ep.stop()
}
