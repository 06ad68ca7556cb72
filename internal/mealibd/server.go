package mealibd

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"

	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// Config assembles a server around one runtime.
type Config struct {
	// Runtime is the shared simulated stack every tenant runs against.
	Runtime *mealibrt.Runtime
	// BatchMax caps the number of compatible small descriptors coalesced
	// into one merged launch (0 selects the default of 8; 1 disables
	// batching).
	BatchMax int
	// BatchBytes is the footprint ceiling for a descriptor to be batchable
	// (0 selects the default of 256 KiB). Loop descriptors never batch.
	BatchBytes units.Bytes
	// DefaultQuota/DefaultMaxInFlight/DefaultMaxQueued apply to sessions
	// whose hello leaves the corresponding field zero (0 = unlimited).
	DefaultQuota       units.Bytes
	DefaultMaxInFlight int
	DefaultMaxQueued   int
}

// Server accepts tenant connections and multiplexes them onto the runtime:
// one connection is one session — a private buffer namespace under a memory
// quota, with the runtime's fair admission interleaving its launches with
// every other tenant's.
type Server struct {
	cfg Config
	rt  *mealibrt.Runtime

	// batch metrics live in the runtime's registry next to the per-session
	// series (nil-safe when telemetry is off).
	mBatches   *telemetry.Counter
	mCoalesced *telemetry.Counter
	hWaitNanos *telemetry.Histogram

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// New builds a server.
func New(cfg Config) (*Server, error) {
	if cfg.Runtime == nil {
		return nil, fmt.Errorf("mealibd: config needs a runtime")
	}
	if cfg.BatchMax == 0 {
		cfg.BatchMax = 8
	}
	if cfg.BatchBytes == 0 {
		cfg.BatchBytes = 256 * units.KiB
	}
	reg := cfg.Runtime.Tracer().Metrics()
	return &Server{
		cfg:        cfg,
		rt:         cfg.Runtime,
		mBatches:   reg.Counter("mealibd.batched_launches"),
		mCoalesced: reg.Counter("mealibd.coalesced_descriptors"),
		hWaitNanos: reg.Histogram("mealibd.wait_nanos"),
		lns:        make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
	}, nil
}

// Serve accepts connections until the listener closes (or Close is called)
// and serves each on its own goroutine. It returns nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("mealibd: server closed")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every connection and waits for the handlers
// to drain (in-flight launches complete; their sessions close cleanly).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for ln := range s.lns {
		_ = ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// pending is one submitted ticket: direct flights wrap a Launch's
// completion; batched tickets are fanned out by the merged launch.
type pending struct {
	done chan struct{}
	rep  Report
	err  error
}

// srvConn is one tenant connection's state. All fields are touched only by
// the connection's handler goroutine (requests are serialised on the wire);
// completion goroutines write into pending structs before closing done.
type srvConn struct {
	srv  *Server
	c    net.Conn
	sess *mealibrt.Session

	nextID  uint64
	bufs    map[uint64]*mealibrt.Buffer
	plans   map[uint64]*mealibrt.Plan
	tickets map[uint64]*pending
	batch   *batcher
}

func (s *Server) serveConn(c net.Conn) {
	sc := &srvConn{
		srv:     s,
		c:       c,
		bufs:    make(map[uint64]*mealibrt.Buffer),
		plans:   make(map[uint64]*mealibrt.Plan),
		tickets: make(map[uint64]*pending),
	}
	defer sc.cleanup()
	r := bufio.NewReader(c) // a frame, or a run of pipelined ones, is normally one read
	var in []byte           // request payload storage, reused from frame to frame
	var out Enc             // the reply, likewise
	for {
		payload, err := readFrame(r, in)
		if err != nil {
			return // disconnect (clean EOF included)
		}
		out.U8(ReplyOK)
		if err := sc.dispatch(&Dec{b: payload}, &out); err != nil {
			out.Reset()
			errReply(&out, err)
		}
		err = out.WriteFrame(c)
		out.Reset()
		if err != nil {
			return
		}
		// Nothing holds the payload once dispatch has returned (Dec.Str,
		// Dec.Bytes and descriptor.DecodeImage copy what they keep), so the next
		// frame may be read over it; TestServerKeepsNoPayload pins that.
		if cap(payload) <= smallFrame {
			in = payload
		}
	}
}

// cleanup flushes any batch still pending, waits out the tenant's tickets
// and closes the session, releasing its buffers and plans.
func (sc *srvConn) cleanup() {
	_ = sc.c.Close()
	if sc.batch != nil {
		sc.batch.flush()
	}
	for _, p := range sc.tickets {
		<-p.done
	}
	if sc.sess != nil {
		_ = sc.sess.Close()
	}
}

// errReply writes err as the reply, preserving the runtime's typed sentinels
// as dedicated codes.
func errReply(e *Enc, err error) {
	code := CodeGeneric
	switch {
	case errors.Is(err, mealibrt.ErrQuotaExceeded):
		code = CodeQuotaExceeded
	case errors.Is(err, mealibrt.ErrQueueFull):
		code = CodeQueueFull
	case errors.Is(err, mealibrt.ErrSessionClosed):
		code = CodeSessionClosed
	case errors.Is(err, mealibrt.ErrOverCapacity):
		code = CodeOverCapacity
	case errors.Is(err, mealibrt.ErrPlanStale):
		code = CodePlanStale
	}
	e.U8(ReplyErr)
	e.U16(code)
	e.Str(err.Error())
}

// dispatch serves one request. A handler appends its reply body to e, which
// already holds ReplyOK; on an error the caller replaces the reply.
func (sc *srvConn) dispatch(d *Dec, e *Enc) error {
	t := d.U8()
	if sc.sess == nil && t != MsgHello {
		return fmt.Errorf("mealibd: first message must be hello")
	}
	switch t {
	case MsgHello:
		return sc.handleHello(d, e)
	case MsgAlloc:
		return sc.handleAlloc(d, e)
	case MsgFree:
		return sc.handleFree(d)
	case MsgStore:
		return sc.handleStore(d)
	case MsgLoad:
		return sc.handleLoad(d, e)
	case MsgPlan:
		return sc.handlePlan(d, e)
	case MsgDestroyPlan:
		return sc.handleDestroyPlan(d)
	case MsgSubmit:
		ticket, err := sc.submit(d)
		if err == nil {
			e.U64(ticket)
		}
		return err
	case MsgWait:
		ticket := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		return sc.wait(ticket, e)
	case MsgExecute:
		ticket, err := sc.submit(d)
		if err != nil {
			return err
		}
		return sc.wait(ticket, e)
	case MsgStats:
		return sc.handleStats(e)
	default:
		return fmt.Errorf("mealibd: unknown message type %d", t)
	}
}

func (sc *srvConn) handleHello(d *Dec, e *Enc) error {
	if sc.sess != nil {
		return fmt.Errorf("mealibd: session already open")
	}
	name := d.Str()
	quota := units.Bytes(d.U64())
	maxInFlight := int(d.U32())
	maxQueued := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	cfg := sc.srv.cfg
	if quota == 0 {
		quota = cfg.DefaultQuota
	}
	if maxInFlight == 0 {
		maxInFlight = cfg.DefaultMaxInFlight
	}
	if maxQueued == 0 {
		maxQueued = cfg.DefaultMaxQueued
	}
	sess, err := sc.srv.rt.NewSession(mealibrt.SessionConfig{
		Name:        name,
		MemQuota:    quota,
		MaxInFlight: maxInFlight,
		MaxQueued:   maxQueued,
	})
	if err != nil {
		return err
	}
	sc.sess = sess
	sc.batch = &batcher{sc: sc}
	e.U64(uint64(quota))
	e.U32(uint32(maxInFlight))
	e.U32(uint32(maxQueued))
	return nil
}

func (sc *srvConn) handleAlloc(d *Dec, e *Enc) error {
	stack := int(d.U32())
	n := units.Bytes(d.U64())
	if d.Err() != nil {
		return d.Err()
	}
	b, err := sc.sess.MemAllocOn(stack, n)
	if err != nil {
		return err
	}
	sc.nextID++
	sc.bufs[sc.nextID] = b
	e.U64(sc.nextID)
	e.U64(uint64(b.PA()))
	return nil
}

func (sc *srvConn) handleFree(d *Dec) error {
	id := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	b, ok := sc.bufs[id]
	if !ok {
		return fmt.Errorf("mealibd: unknown buffer %d", id)
	}
	// A batched descriptor may still reference the buffer: flush first so
	// the runtime has accepted the launch and the free waits behind it.
	sc.batch.flush()
	if err := sc.sess.MemFree(b); err != nil {
		return err
	}
	delete(sc.bufs, id)
	return nil
}

// elemBytes is the size of one element of a store or load of the given kind.
func elemBytes(kind uint8) (int, error) {
	switch kind {
	case ElemF32, ElemI32:
		return 4, nil
	case ElemC64:
		return 8, nil
	}
	return 0, fmt.Errorf("mealibd: unknown element kind %d", kind)
}

func (sc *srvConn) handleStore(d *Dec) error {
	id := d.U64()
	off := units.Bytes(d.U64())
	kind := d.U8()
	data := d.Bytes()
	if d.Err() != nil {
		return d.Err()
	}
	b, ok := sc.bufs[id]
	if !ok {
		return fmt.Errorf("mealibd: unknown buffer %d", id)
	}
	elem, err := elemBytes(kind)
	if err != nil {
		return err
	}
	if len(data)%elem != 0 {
		return fmt.Errorf("mealibd: store of %d bytes not a multiple of the %d-byte element", len(data), elem)
	}
	// A store must not overtake a launch the tenant submitted first: a
	// batched member touching the span flushes the batch, so the runtime has
	// accepted the launch and orders the store behind it.
	sp := span.Span{Addr: b.PA() + phys.Addr(off), Bytes: units.Bytes(len(data))}
	if sc.batch.conflicts([]span.Span{sp}, nil) {
		sc.batch.flush()
	}
	// The wire and the physical space share one little-endian element
	// layout, so the frame's bytes go in as they are.
	return b.StoreBytes(off, data)
}

func (sc *srvConn) handleLoad(d *Dec, e *Enc) error {
	id := d.U64()
	off := units.Bytes(d.U64())
	kind := d.U8()
	count := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	b, ok := sc.bufs[id]
	if !ok {
		return fmt.Errorf("mealibd: unknown buffer %d", id)
	}
	elem, err := elemBytes(kind)
	if err != nil {
		return err
	}
	// Loads observe launched data: anything still sitting in the batch must
	// be accepted by the runtime first.
	sc.batch.flush()
	data, err := b.LoadBytes(off, elem*count)
	if err != nil {
		return err
	}
	e.Bytes(data)
	return nil
}

func (sc *srvConn) handlePlan(d *Dec, e *Enc) error {
	desc, err := descriptor.DecodeImage(d.Rest(), 0)
	if err != nil {
		return err
	}
	p, err := sc.sess.AccPlanDescriptor(desc)
	if err != nil {
		return err
	}
	sc.nextID++
	sc.plans[sc.nextID] = p
	e.U64(sc.nextID)
	return nil
}

func (sc *srvConn) handleDestroyPlan(d *Dec) error {
	id := d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	p, ok := sc.plans[id]
	if !ok {
		return fmt.Errorf("mealibd: unknown plan %d", id)
	}
	// The plan may still sit in the batch: flush launches it, and Destroy
	// waits out the plan's accepted launches.
	sc.batch.flush()
	if err := p.Destroy(); err != nil {
		return err
	}
	delete(sc.plans, id)
	return nil
}

// submit routes the plan the request names into the batcher (MsgSubmit, and
// the first half of MsgExecute) and books its ticket.
func (sc *srvConn) submit(d *Dec) (uint64, error) {
	id := d.U64()
	if d.Err() != nil {
		return 0, d.Err()
	}
	p, ok := sc.plans[id]
	if !ok {
		return 0, fmt.Errorf("mealibd: unknown plan %d", id)
	}
	pend := &pending{done: make(chan struct{})}
	sc.batch.submit(p, pend)
	sc.nextID++
	sc.tickets[sc.nextID] = pend
	return sc.nextID, nil
}

// wait blocks until the ticket's flight completes and appends its report
// (MsgWait, and the second half of MsgExecute).
func (sc *srvConn) wait(ticket uint64, e *Enc) error {
	pend, ok := sc.tickets[ticket]
	if !ok {
		return fmt.Errorf("mealibd: unknown ticket %d", ticket)
	}
	// The awaited ticket may still be sitting in the batch.
	sc.batch.flush()
	<-pend.done
	delete(sc.tickets, ticket)
	if pend.err != nil {
		return pend.err
	}
	MarshalReport(e, &pend.rep)
	return nil
}

// statsBody is the MsgStats JSON payload.
type statsBody struct {
	Tenant    string                 `json:"tenant"`
	Session   mealibrt.SessionStats  `json:"session"`
	Runtime   mealibrt.Stats         `json:"runtime"`
	ModelTime units.Seconds          `json:"model_time"`
	Metrics   map[string]int64       `json:"metrics,omitempty"`
	Quantiles map[string]interface{} `json:"-"`
}

func (sc *srvConn) handleStats(e *Enc) error {
	sc.batch.flush()
	body := statsBody{
		Tenant:    sc.sess.Name(),
		Session:   sc.sess.Stats(),
		Runtime:   sc.srv.rt.Stats(),
		ModelTime: sc.srv.rt.ModelTime(),
	}
	if reg := sc.srv.rt.Tracer().Metrics(); reg != nil {
		snap := reg.Snapshot()
		body.Metrics = make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
		for name, v := range snap.Counters {
			body.Metrics[name] = v
		}
		for name, v := range snap.Gauges {
			body.Metrics[name] = v
		}
	}
	js, err := json.Marshal(&body)
	if err != nil {
		return err
	}
	e.Bytes(js)
	return nil
}

// launch accepts p on the connection goroutine — the runtime fixes the
// launch's place at once, so wire order is runtime order: the tenant's later
// stores, loads, frees and destroys wait behind it and its later launches
// queue behind it — and runs it (Launch.Run: admission wait, doorbell and
// flight) on one goroutine of its own, fanning the completed invocation out to
// pends (batched tells the report how many coalesced members share the flight;
// ephemeral plans are destroyed after it drains). The connection goroutine stays free to serve waits and stats while
// the launch sits in admission, and every launch error, the typed
// backpressure ones Accept returns included, surfaces at the ticket's Wait.
func (sc *srvConn) launch(p *mealibrt.Plan, ephemeral bool, batched int64, pends []*pending) {
	finish := func(err error) {
		if ephemeral {
			_ = p.Destroy()
		}
		for _, pend := range pends {
			pend.err = err
			close(pend.done)
		}
	}
	l, err := p.Accept()
	if err != nil {
		finish(err)
		return
	}
	h := sc.srv.hWaitNanos
	go func() {
		inv, err := l.Run(context.Background())
		if err == nil {
			rep := reportOf(inv, batched)
			for _, pend := range pends {
				pend.rep = rep
			}
			h.Observe(int64(float64(inv.Report.Time) * 1e9))
		}
		finish(err)
	}()
}

func reportOf(inv *mealibrt.Invocation, batched int64) Report {
	return Report{
		Comps:          inv.Report.Comps,
		Batched:        batched,
		Time:           inv.Report.Time,
		Energy:         inv.Report.Energy,
		OverheadTime:   inv.OverheadTime,
		OverheadEnergy: inv.OverheadEnergy,
		HostIdleEnergy: inv.HostIdleEnergy,
		BytesMoved:     inv.Report.NoCBytes,
		BytesElided:    inv.Report.ElidedBytes,
	}
}

// footprint sums a span set's bytes.
func footprint(spans []span.Span) units.Bytes {
	var n units.Bytes
	for _, s := range spans {
		n += s.Bytes
	}
	return n
}
