// Package client talks the mealibd wire protocol: it gives a remote tenant
// the same surface a mealibrt.Session gives an in-process one — allocate
// quota-accounted buffers, install descriptors as plans, submit and wait —
// with the runtime's typed errors (quota exceeded, queue full, session
// closed) reconstructed from the wire so errors.Is works across the socket.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"

	"mealib/internal/descriptor"
	"mealib/internal/mealibd"
	"mealib/internal/mealibrt"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Config opens a tenant session.
type Config struct {
	// Network/Addr name the server endpoint ("unix", "/run/mealibd.sock" or
	// "tcp", "host:port").
	Network, Addr string
	// Tenant is the session name (required).
	Tenant string
	// Quota/MaxInFlight/MaxQueued request session bounds (0 = the server's
	// defaults, which may themselves be unlimited).
	Quota       units.Bytes
	MaxInFlight int
	MaxQueued   int
}

// Client is one open tenant session. Methods are safe for concurrent use;
// requests serialise on the single connection.
type Client struct {
	// c is the connection. Close closes it without mu, which unblocks a
	// request in flight; c.err is guarded by mu.
	c   conn
	mu  sync.Mutex // serialises requests; guards c.err and the fields below
	r   *bufio.Reader
	out mealibd.Enc // the request; its storage is reused from one to the next
}

// conn is the client's end of the connection, and its first failure sticks:
// after a write that did not go out whole, or a reply that was not read
// whole, requests and replies are out of step, so every later request
// returns that error instead of reading a reply that belongs to another.
type conn struct {
	net.Conn
	err error
}

func (c *conn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if err != nil && c.err == nil {
		c.err = err
	}
	return n, err
}

// Buffer is a remote quota-accounted allocation.
type Buffer struct {
	cl *Client
	id uint64
	pa uint64
}

// PA returns the buffer's physical address in the server's simulated stack —
// what descriptor parameters carry.
func (b *Buffer) PA() uint64 { return b.pa }

// Plan is a remotely installed descriptor.
type Plan struct {
	cl *Client
	id uint64
}

// Ticket is an in-flight submission.
type Ticket struct {
	cl *Client
	id uint64
}

// Dial connects and opens the session.
func Dial(cfg Config) (*Client, error) {
	if cfg.Tenant == "" {
		return nil, fmt.Errorf("client: config needs a tenant name")
	}
	c, err := net.Dial(cfg.Network, cfg.Addr)
	if err != nil {
		return nil, err
	}
	cl, err := open(c, cfg)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return cl, nil
}

// open opens the session on an established connection.
func open(c net.Conn, cfg Config) (*Client, error) {
	if err := errors.Join(
		fits("quota", int64(cfg.Quota), math.MaxInt64),
		fits("MaxInFlight", int64(cfg.MaxInFlight), math.MaxUint32),
		fits("MaxQueued", int64(cfg.MaxQueued), math.MaxUint32),
	); err != nil {
		return nil, err
	}
	cl := &Client{c: conn{Conn: c}, r: bufio.NewReader(c)}
	_, err := cl.roundTrip(mealibd.MsgHello, func(e *mealibd.Enc) error {
		e.Str(cfg.Tenant)
		e.U64(uint64(cfg.Quota))
		e.U32(uint32(cfg.MaxInFlight))
		e.U32(uint32(cfg.MaxQueued))
		return nil
	})
	return cl, err
}

// fits refuses v outside 0..max, the range of the wire field that carries it.
func fits(what string, v int64, max uint64) error {
	if v < 0 || uint64(v) > max {
		return fmt.Errorf("client: %s %d does not fit the wire's field (0..%d)", what, v, max)
	}
	return nil
}

// Close tears the connection down; the server drains and closes the session
// (its buffers and plans are released). It does not wait for a request in
// flight: that request, and every later one, returns an error.
func (cl *Client) Close() error {
	return cl.c.Conn.Close()
}

// roundTrip sends one request frame and decodes the reply envelope. The
// request is encoded into the client's reused Enc, so under the lock; the
// reply is a payload of its own, decoded by the caller after the lock.
func (cl *Client) roundTrip(msg uint8, body func(*mealibd.Enc) error) (*mealibd.Dec, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.c.err != nil {
		return nil, cl.c.err
	}
	e := &cl.out
	e.U8(msg)
	var err error
	if body != nil {
		err = body(e)
	}
	if err == nil {
		err = e.WriteFrame(&cl.c)
	}
	e.Reset()
	if err != nil {
		return nil, err
	}
	payload, err := mealibd.ReadFrame(cl.r)
	if err != nil {
		cl.c.err = err
		return nil, err
	}
	d := mealibd.NewDec(payload)
	switch status := d.U8(); status {
	case mealibd.ReplyOK:
		return d, nil
	case mealibd.ReplyErr:
		code := d.U16()
		msg := d.Str()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, wireError(code, msg)
	default:
		return nil, fmt.Errorf("client: unknown reply status %d", status)
	}
}

// wireError rebuilds the runtime's typed sentinels from the wire code, so
// remote callers branch on errors.Is(err, mealibrt.ErrQuotaExceeded) etc.
// exactly like in-process ones.
func wireError(code uint16, msg string) error {
	switch code {
	case mealibd.CodeQuotaExceeded:
		return fmt.Errorf("%w (remote: %s)", mealibrt.ErrQuotaExceeded, msg)
	case mealibd.CodeQueueFull:
		return fmt.Errorf("%w (remote: %s)", mealibrt.ErrQueueFull, msg)
	case mealibd.CodeSessionClosed:
		return fmt.Errorf("%w (remote: %s)", mealibrt.ErrSessionClosed, msg)
	case mealibd.CodeOverCapacity:
		return fmt.Errorf("%w (remote: %s)", mealibrt.ErrOverCapacity, msg)
	case mealibd.CodePlanStale:
		return fmt.Errorf("%w (remote: %s)", mealibrt.ErrPlanStale, msg)
	default:
		return fmt.Errorf("client: server error: %s", msg)
	}
}

// Alloc reserves n bytes on the local memory stack.
func (cl *Client) Alloc(n units.Bytes) (*Buffer, error) {
	return cl.AllocOn(0, n)
}

// AllocOn reserves n bytes on an explicit stack.
func (cl *Client) AllocOn(stack int, n units.Bytes) (*Buffer, error) {
	if err := errors.Join(fits("stack", int64(stack), math.MaxUint32), fits("size", int64(n), math.MaxInt64)); err != nil {
		return nil, err
	}
	d, err := cl.roundTrip(mealibd.MsgAlloc, func(e *mealibd.Enc) error {
		e.U32(uint32(stack))
		e.U64(uint64(n))
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &Buffer{cl: cl, id: d.U64(), pa: d.U64()}
	return b, d.Err()
}

// Free releases the buffer (and its quota).
func (b *Buffer) Free() error {
	_, err := b.cl.roundTrip(mealibd.MsgFree, func(e *mealibd.Enc) error {
		e.U64(b.id)
		return nil
	})
	return err
}

// Store writes vs at byte offset off.
func Store[T phys.Elem](b *Buffer, off units.Bytes, vs []T) error {
	_, err := b.cl.roundTrip(mealibd.MsgStore, func(e *mealibd.Enc) error {
		e.U64(b.id)
		e.U64(uint64(off))
		e.U8(mealibd.ElemKind[T]())
		e.Bytes(phys.Encode(vs))
		return nil
	})
	return err
}

// Load reads count elements at byte offset off. The wire carries a 32-bit
// count, so a larger one is refused before it is sent, and a reply that
// does not hold count elements is an error.
func Load[T phys.Elem](b *Buffer, off units.Bytes, count int) ([]T, error) {
	if err := fits("load count", int64(count), math.MaxUint32); err != nil {
		return nil, err
	}
	d, err := b.cl.roundTrip(mealibd.MsgLoad, func(e *mealibd.Enc) error {
		e.U64(b.id)
		e.U64(uint64(off))
		e.U8(mealibd.ElemKind[T]())
		e.U32(uint32(count))
		return nil
	})
	if err != nil {
		return nil, err
	}
	data := d.Bytes()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if want := count * phys.Size[T](); len(data) != want {
		return nil, fmt.Errorf("client: load reply holds %d bytes, want %d", len(data), want)
	}
	return phys.Decode[T](data), nil
}

// StoreFloat32s is Store[float32].
func (b *Buffer) StoreFloat32s(off units.Bytes, vs []float32) error { return Store(b, off, vs) }

// LoadFloat32s is Load[float32].
func (b *Buffer) LoadFloat32s(off units.Bytes, count int) ([]float32, error) {
	return Load[float32](b, off, count)
}

// Plan installs a descriptor in the tenant's namespace. It travels as its
// image at base 0; the server decodes it with the fetch unit's reader,
// re-verifies it and rejects any footprint outside the tenant's buffers.
func (cl *Client) Plan(desc *descriptor.Descriptor) (*Plan, error) {
	d, err := cl.roundTrip(mealibd.MsgPlan, func(e *mealibd.Enc) error {
		img, _, err := desc.Image()
		e.Raw(img)
		return err
	})
	if err != nil {
		return nil, err
	}
	p := &Plan{cl: cl, id: d.U64()}
	return p, d.Err()
}

// Destroy releases the installed plan.
func (p *Plan) Destroy() error {
	_, err := p.cl.roundTrip(mealibd.MsgDestroyPlan, func(e *mealibd.Enc) error {
		e.U64(p.id)
		return nil
	})
	return err
}

// Submit launches (or batches) the plan and returns its ticket. Admission is
// asynchronous: typed backpressure errors (queue full, session closed)
// surface at the ticket's Wait.
func (p *Plan) Submit() (*Ticket, error) {
	d, err := p.cl.roundTrip(mealibd.MsgSubmit, func(e *mealibd.Enc) error {
		e.U64(p.id)
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Ticket{cl: p.cl, id: d.U64()}
	return t, d.Err()
}

// Wait blocks until the ticket's flight completes and returns its report.
func (t *Ticket) Wait() (*mealibd.Report, error) {
	d, err := t.cl.roundTrip(mealibd.MsgWait, func(e *mealibd.Enc) error {
		e.U64(t.id)
		return nil
	})
	return report(d, err)
}

// Execute is Submit followed by Wait, in one round trip (MsgExecute). A
// server that predates MsgExecute answers "unknown message type 11".
func (p *Plan) Execute() (*mealibd.Report, error) {
	d, err := p.cl.roundTrip(mealibd.MsgExecute, func(e *mealibd.Enc) error {
		e.U64(p.id)
		return nil
	})
	return report(d, err)
}

// report decodes a Wait or Execute reply.
func report(d *mealibd.Dec, err error) (*mealibd.Report, error) {
	if err != nil {
		return nil, err
	}
	rep := mealibd.UnmarshalReport(d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Stats fetches the tenant + runtime accounting snapshot as JSON.
func (cl *Client) Stats() ([]byte, error) {
	d, err := cl.roundTrip(mealibd.MsgStats, nil)
	if err != nil {
		return nil, err
	}
	js := d.Bytes()
	return js, d.Err()
}
