package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mealib/internal/accel"
	"mealib/internal/analysis/tdlcheck"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/mealibd"
	"mealib/internal/mealibd/client"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// serve is the service workload: an in-process mealibd on a unix socket, its
// runtime built the way cmd/mealibd builds it (wave pipelining on, default
// batching) but with no tracer, and two tenants, each one connection and one
// goroutine. A tenant repeats a cycle of 16 launches of AXPY n=4096 over
// four disjoint buffer pairs: 12 Execute round trips, then 4 Submits
// followed by 4 Waits (the server coalesces them into one batch of 4), then
// a 16 KiB store into one x and a load of one y, which the server must
// order against the launches. One op is one launch round trip.
type serve struct {
	sc      scale
	rt      *mealibrt.Runtime
	srv     *mealibd.Server
	sock    string
	done    chan error
	tenants []*tenant
	cycles  int // per tenant and trial
}

const (
	serveTenants = 2
	servePairs   = 4
	serveN       = 4096
	serveCycle   = 16 // launches per cycle
)

// sockDir is where the unix socket goes: inside the checkout, and a short
// relative path (a socket address holds about a hundred bytes).
var sockDir = ".bench_build"

type tenant struct {
	cl     *client.Client
	x, y   [servePairs]*client.Buffer
	hx, hy [servePairs][]float32
	desc   [servePairs]*descriptor.Descriptor
	plans  [servePairs]*client.Plan
	// pool holds the vectors the cycle's store rotates through.
	pool [][]float32
	// done and replayed count the cycles run on the server and on the host
	// mirrors; they pick the cycle's store payload and target.
	done, replayed int
}

func axpyDesc(x, y phys.Addr) (*descriptor.Descriptor, error) {
	return onePass(descriptor.OpAXPY, accel.AxpyArgs{N: serveN, Alpha: 1, X: x, Y: y, IncX: 1, IncY: 1}.Params())
}

func (w *serve) setup(seed int64) error {
	cfg := mealibrt.DefaultConfig()
	cfg.WavePipeline = true
	var err error
	if w.rt, err = mealibrt.New(cfg); err != nil {
		return err
	}
	if w.srv, err = mealibd.New(mealibd.Config{Runtime: w.rt}); err != nil {
		return err
	}
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return err
	}
	w.sock = filepath.Join(sockDir, fmt.Sprintf("serve-%d.sock", os.Getpid()))
	_ = os.Remove(w.sock) // a crashed run's leftover; absent otherwise
	ln, err := net.Listen("unix", w.sock)
	if err != nil {
		return err
	}
	w.done = make(chan error, 1)
	go func() { w.done <- w.srv.Serve(ln) }()

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < serveTenants; i++ {
		cl, err := client.Dial(client.Config{Network: "unix", Addr: w.sock, Tenant: fmt.Sprintf("tenant%d", i)})
		if err != nil {
			return err
		}
		tn := &tenant{cl: cl}
		w.tenants = append(w.tenants, tn)
		for k := 0; k < servePairs; k++ {
			if tn.x[k], err = cl.Alloc(4 * serveN); err != nil {
				return err
			}
			if tn.y[k], err = cl.Alloc(4 * serveN); err != nil {
				return err
			}
			tn.hx[k], tn.hy[k] = randF32(rng, serveN), randF32(rng, serveN)
			if err := tn.x[k].StoreFloat32s(0, tn.hx[k]); err != nil {
				return err
			}
			if err := tn.y[k].StoreFloat32s(0, tn.hy[k]); err != nil {
				return err
			}
			if tn.desc[k], err = axpyDesc(phys.Addr(tn.x[k].PA()), phys.Addr(tn.y[k].PA())); err != nil {
				return err
			}
			if tn.plans[k], err = cl.Plan(tn.desc[k]); err != nil {
				return err
			}
		}
		for k := 0; k < 8; k++ {
			tn.pool = append(tn.pool, randF32(rng, serveN))
		}
	}
	w.cycles = 50 // 800 launches a tenant, about 0.1 s
	if w.sc.tiny {
		w.cycles = 8
	}
	// Set-up ends with one cycle per tenant: first launches are set-up time.
	var warm trialResult
	for _, tn := range w.tenants {
		tn.run(1, nil, &warm, new(sync.Mutex), 0)
		if err := tn.replay(1); err != nil {
			return err
		}
	}
	return warm.err
}

// run issues n cycles. Latencies and failures go to t under mu; op ids start
// at base.
func (tn *tenant) run(n int, rec *recorder, t *trialResult, mu *sync.Mutex, base int) {
	lat := make([]float64, 0, n*serveCycle)
	var acc modelAcc
	var errs []error
	since := func(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }
	op := base
	for c := 0; c < n; c++ {
		for i := 0; i < serveCycle-servePairs; i++ {
			op++
			root := rec.begin("op", 0, op)
			t0 := time.Now()
			id := rec.begin("mealibd.execute", root, op)
			rep, err := tn.plans[i%servePairs].Execute()
			rec.end(id)
			lat = append(lat, since(t0))
			rec.end(root)
			if err != nil {
				errs = append(errs, err)
			} else if rec != nil {
				acc.addWire(rep)
			}
		}
		var tickets [servePairs]*client.Ticket
		var roots [servePairs]int
		var starts [servePairs]time.Time
		for k := range tickets {
			op++
			roots[k] = rec.begin("op", 0, op)
			starts[k] = time.Now()
			id := rec.begin("mealibd.submit", roots[k], op)
			tk, err := tn.plans[k].Submit()
			rec.end(id)
			if err != nil {
				errs = append(errs, err)
			}
			tickets[k] = tk
		}
		for k, tk := range tickets {
			if tk == nil {
				lat = append(lat, since(starts[k]))
				rec.end(roots[k])
				continue
			}
			id := rec.begin("mealibd.wait", roots[k], op-servePairs+1+k)
			rep, err := tk.Wait()
			rec.end(id)
			lat = append(lat, since(starts[k]))
			rec.end(roots[k])
			if err != nil {
				errs = append(errs, err)
			} else if rec != nil {
				acc.addWire(rep)
			}
		}
		k := tn.done % servePairs
		root := rec.begin("hostop", 0, op)
		id := rec.begin("mealibd.store", root, op)
		err := tn.x[k].StoreFloat32s(0, tn.pool[tn.done%len(tn.pool)])
		rec.end(id)
		if err == nil {
			id = rec.begin("mealibd.load", root, op)
			_, err = tn.y[k].LoadFloat32s(0, serveN)
			rec.end(id)
		}
		rec.end(root)
		if err != nil {
			errs = append(errs, err)
		}
		tn.done++
	}
	mu.Lock()
	t.lat = append(t.lat, lat...)
	for _, err := range errs {
		t.fail(err)
	}
	t.acc.merge(&acc)
	mu.Unlock()
}

// addWire books one wire report. A batched launch reports the merged flight
// to each of its members, so each member books its share.
func (a *modelAcc) addWire(rep *mealibd.Report) {
	b := float64(rep.Batched)
	a.time += (rep.Time + rep.OverheadTime) / units.Seconds(b)
	a.energy += (rep.Energy + rep.OverheadEnergy + rep.HostIdleEnergy) / units.Joules(b)
	a.overhead += rep.OverheadTime / units.Seconds(b)
	a.idle += rep.HostIdleEnergy / units.Joules(b)
	a.comps += float64(rep.Comps) / b
	a.noc += float64(rep.BytesMoved) / b
	a.elided += float64(rep.BytesElided) / b
	if rep.Batched > 1 {
		a.batched++
	}
}

func (a *modelAcc) merge(b *modelAcc) {
	a.time += b.time
	a.energy += b.energy
	a.overhead += b.overhead
	a.idle += b.idle
	a.comps += b.comps
	a.noc += b.noc
	a.elided += b.elided
	a.batched += b.batched
}

// replay runs n cycles on the host mirrors.
func (tn *tenant) replay(n int) error {
	for c := 0; c < n; c++ {
		for i := 0; i < serveCycle; i++ {
			k := i % servePairs
			if err := kernels.Saxpy(serveN, 1, tn.hx[k], 1, tn.hy[k], 1); err != nil {
				return err
			}
		}
		copy(tn.hx[tn.replayed%servePairs], tn.pool[tn.replayed%len(tn.pool)])
		tn.replayed++
	}
	return nil
}

func (w *serve) trial(rec *recorder, t *trialResult) error {
	t.callers = len(w.tenants)
	t.ops = len(w.tenants) * w.cycles * serveCycle
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i, tn := range w.tenants {
		wg.Add(1)
		go func(i int, tn *tenant) {
			defer wg.Done()
			tn.run(w.cycles, rec, t, &mu, i*w.cycles*serveCycle)
		}(i, tn)
	}
	wg.Wait()
	t.wall = time.Since(start)
	return nil
}

func (w *serve) host() error {
	for _, tn := range w.tenants {
		if err := tn.replay(w.cycles); err != nil {
			return err
		}
	}
	return nil
}

func (w *serve) verify() error {
	for i, tn := range w.tenants {
		for k := 0; k < servePairs; k++ {
			for _, b := range []struct {
				what string
				dev  *client.Buffer
				host []float32
			}{{"x", tn.x[k], tn.hx[k]}, {"y", tn.y[k], tn.hy[k]}} {
				got, err := b.dev.LoadFloat32s(0, serveN)
				if err != nil {
					return err
				}
				if err := sameF32(fmt.Sprintf("tenant %d %s[%d]", i, b.what, k), got, b.host); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *serve) close() error {
	for _, tn := range w.tenants {
		_ = tn.cl.Close() // the server drains the session either way
	}
	if w.srv == nil {
		return nil
	}
	err := w.srv.Close()
	if w.done != nil {
		if serr := <-w.done; err == nil {
			err = serr
		}
	}
	_ = os.Remove(w.sock) // Serve's listener usually unlinked it already
	return err
}

func (w *serve) layers(rec *recorder, m metrics, t *trialResult, untracedUS float64) error {
	ops := float64(t.ops)
	a := &t.acc
	m["mealibd.batched_share"] = float64(a.batched) / ops
	lat := append([]float64(nil), t.lat...)
	sort.Float64s(lat)
	m["mealibd.roundtrip_p99_us"] = quantile(lat, 0.99)
	m["mealibd.roundtrip_p999_us"] = quantile(lat, 0.999)
	self := rec.selfMicros()
	m["mealibd.store_us"] = self["mealibd.store"]
	m["mealibd.load_us"] = self["mealibd.load"]

	// The layers under the server, on the runtime the server wraps, with the
	// tenants' own descriptors (the server is idle now).
	r := &rig{rt: w.rt}
	for _, tn := range w.tenants {
		for k := 0; k < servePairs; k++ {
			r.init = append(r.init,
				tdlcheck.Span{Addr: phys.Addr(tn.x[k].PA()), Bytes: 4 * serveN},
				tdlcheck.Span{Addr: phys.Addr(tn.y[k].PA()), Bytes: 4 * serveN})
		}
	}
	t0, t1 := w.tenants[0], w.tenants[1]
	reps := 2000
	if w.sc.tiny {
		reps = 4
	}
	x0 := append([]float32(nil), t0.hx[0]...)
	y0 := append([]float32(nil), t0.hy[0]...)
	host := func() error { return kernels.Saxpy(serveN, 1, x0, 1, y0, 1) }
	if err := r.probeLayers(rec, m, []probed{{name: "AXPY", desc: t0.desc[0], host: host, weight: 1, reps: reps}}); err != nil {
		return err
	}
	var plans []*mealibrt.Plan
	for _, d := range []*descriptor.Descriptor{t0.desc[0], t1.desc[0]} {
		p, err := w.rt.AccPlanDescriptor(d)
		if err != nil {
			return err
		}
		plans = append(plans, p)
	}
	if err := r.probeRuntime(rec, m, t0.desc[0], plans, []int{0}, reps, 1); err != nil {
		return err
	}

	// The wire layer itself.
	var err error
	d := t0.desc[0]
	wire := mealibd.Report{Comps: 1, Batched: 1, Time: 1e-6, Energy: 1e-6}
	var frame bytes.Buffer
	if m["mealibd.codec_us"], err = usPer(reps, func() error {
		// One launch is a submit and a wait: the descriptor and the report
		// each cross the wire once, and four frames are written and read.
		e := &mealibd.Enc{}
		if err := mealibd.MarshalDescriptor(e, d); err != nil {
			return err
		}
		if _, err := mealibd.UnmarshalDescriptor(mealibd.NewDec(e.Payload())); err != nil {
			return err
		}
		re := &mealibd.Enc{}
		mealibd.MarshalReport(re, &wire)
		mealibd.UnmarshalReport(mealibd.NewDec(re.Payload()))
		for _, payload := range [][]byte{e.Payload(), re.Payload(), re.Payload(), re.Payload()} {
			frame.Reset()
			if err := mealibd.WriteFrame(&frame, payload); err != nil {
				return err
			}
			if _, err := mealibd.ReadFrame(&frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if m["mealibd.dial_us"], err = usPer(reps/10+1, func() error {
		cl, err := client.Dial(client.Config{Network: "unix", Addr: w.sock, Tenant: "probe"})
		if err != nil {
			return err
		}
		return cl.Close()
	}); err != nil {
		return err
	}
	if m["mealibd.roundtrip_us"], err = usPer(reps, func() error { _, err := t0.plans[0].Execute(); return err }); err != nil {
		return err
	}
	m["mealibd.self_us"] = m["mealibd.roundtrip_us"] - m["mealibrt.execute_us"]
	if m["mealibd.plan_us"], err = usPer(reps/10+1, func() error {
		p, err := t0.cl.Plan(d)
		if err != nil {
			return err
		}
		return p.Destroy()
	}); err != nil {
		return err
	}
	for _, tn := range w.tenants {
		js, err := tn.cl.Stats()
		if err != nil {
			return err
		}
		var body struct {
			Session mealibrt.SessionStats `json:"session"`
		}
		if err := json.Unmarshal(js, &body); err != nil {
			return err
		}
		m["mealibrt.stalls"] += float64(body.Session.Stalls)
	}
	attribute(m, untracedUS, m["mealibd.roundtrip_us"])
	return nil
}
