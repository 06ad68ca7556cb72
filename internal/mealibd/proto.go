// Package mealibd is the multi-tenant accelerator service built on the
// runtime's Session abstraction: a daemon (cmd/mealibd) serves a
// length-prefixed binary protocol over TCP or unix sockets, so concurrent
// clients — each a tenant with its own buffer namespace, memory quota and
// backpressure bounds — share one simulated memory stack. The matching
// client lives in internal/mealibd/client.
//
// Wire format. Every message is one frame: a little-endian uint32 payload
// length followed by the payload, whose first byte is the message type. A
// frame leaves in one Write: Enc builds the payload behind a reserved header,
// so the header is filled in and sent with it, and the payload is not copied.
// Each end reads through one buffered reader, so a frame is normally one
// read. Requests flow client→server and every request is answered by exactly
// one reply frame, in request order, whose first byte is ReplyOK or ReplyErr.
// A client may pipeline requests (send several before reading a reply) as
// long as it reads the replies while it sends; the client in this tree sends
// one at a time. ReplyErr carries a uint16 error code — quota, queue-full and
// session-closed map onto the runtime's typed sentinel errors on the client
// side, so a remote tenant can errors.Is() its way through backpressure
// exactly like an in-process one.
//
// MsgExecute is MsgSubmit followed by MsgWait for the ticket it books, in one
// round trip: the server runs the same submit and wait paths, so an Execute
// that meets batched submissions joins their batch as Submit + Wait would. A
// server that predates it answers "unknown message type 11".
package mealibd

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Request message types.
const (
	MsgHello       uint8 = iota + 1 // open the tenant session
	MsgAlloc                        // quota-accounted buffer allocation
	MsgFree                         // buffer release
	MsgStore                        // host→buffer element store
	MsgLoad                         // buffer→host element load
	MsgPlan                         // install a descriptor as a session plan
	MsgDestroyPlan                  // release an installed plan
	MsgSubmit                       // launch (or batch) a plan, returning a ticket
	MsgWait                         // block until a ticket's flight completes
	MsgStats                        // tenant + runtime accounting snapshot (JSON)
	MsgExecute                      // submit a plan and wait for that ticket, in one round trip
)

// Reply status bytes.
const (
	ReplyOK uint8 = iota
	ReplyErr
)

// Wire error codes (ReplyErr payload).
const (
	CodeGeneric uint16 = iota + 1
	CodeQuotaExceeded
	CodeQueueFull
	CodeSessionClosed
	CodeOverCapacity
	CodePlanStale
)

// Element kinds for store/load payloads.
const (
	ElemF32 uint8 = iota
	ElemC64
	ElemI32
)

// maxFrame bounds one frame's payload; larger frames indicate a corrupt or
// hostile peer and are refused before allocation.
const maxFrame = 1 << 28

// hdrLen is the frame header: the payload length, a little-endian uint32.
const hdrLen = 4

// smallFrame is the most a reader allocates on the strength of a header
// alone, and the most a connection keeps between frames. A larger payload is
// grown as its bytes arrive and dropped after use, so a header that lies
// costs about what was actually sent, and a connection that once carried a
// 16 MiB store does not hold 16 MiB.
const smallFrame = 64 << 10

func errFrameSize(n uint64) error {
	return fmt.Errorf("mealibd: frame of %d bytes exceeds the %d limit", n, maxFrame)
}

// WriteFrame emits one length-prefixed frame in one Write. It copies the
// payload behind a header; a message built in an Enc goes out without that
// copy through Enc.WriteFrame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return errFrameSize(uint64(len(payload)))
	}
	e := Enc{b: make([]byte, hdrLen, hdrLen+len(payload))}
	e.b = append(e.b, payload...)
	return e.WriteFrame(w)
}

// ReadFrame reads one length-prefixed frame.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r, nil) }

// readFrame reads one frame into buf's storage when the payload fits its
// capacity, and into new storage otherwise. A payload past smallFrame grows
// as its bytes arrive (readLarge).
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < hdrLen {
		buf = make([]byte, hdrLen)
	}
	hdr := buf[:hdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	switch {
	case n > maxFrame:
		return nil, errFrameSize(uint64(n))
	case int(n) <= cap(buf):
		buf = buf[:n]
	case n <= smallFrame:
		buf = make([]byte, n)
	default:
		return readLarge(r, int(n))
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, midFrame(err)
	}
	return buf, nil
}

// readLarge reads an n-byte payload in parts: the first smallFrame bytes,
// then each part as large as all the parts before it, so what is allocated
// before the bytes arrive never exceeds what has arrived (or smallFrame).
// The parts are joined once the payload is whole.
func readLarge(r io.Reader, n int) ([]byte, error) {
	var parts [][]byte
	for got := 0; got < n; {
		p := make([]byte, min(n-got, max(got, smallFrame)))
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, midFrame(err)
		}
		parts = append(parts, p)
		got += len(p)
	}
	payload := make([]byte, 0, n)
	for _, p := range parts {
		payload = append(payload, p...)
	}
	return payload, nil
}

// midFrame reports an end of stream inside a frame as the truncation it is.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Enc builds a payload behind a reserved frame header, so WriteFrame sends
// header and payload in one Write without copying the payload. The zero
// value is ready to use; Reset readies it for the next message.
type Enc struct {
	b []byte // b[:hdrLen] is the header WriteFrame fills in; the payload follows
}

// buf returns the storage with the header reserved.
func (e *Enc) buf() []byte {
	if e.b == nil {
		e.b = make([]byte, hdrLen, 64)
	}
	return e.b
}

// Payload returns the bytes built so far.
func (e *Enc) Payload() []byte {
	if e.b == nil {
		return nil
	}
	return e.b[hdrLen:]
}

// Reset empties the payload and keeps the storage for the next message,
// unless a message larger than smallFrame grew it.
func (e *Enc) Reset() {
	if cap(e.b) > hdrLen+smallFrame {
		e.b = nil
	} else if e.b != nil {
		e.b = e.b[:hdrLen]
	}
}

// WriteFrame sends the payload built so far as one frame, header and payload
// in one Write. This is the one place a frame header is written.
func (e *Enc) WriteFrame(w io.Writer) error {
	b := e.buf()
	n := len(b) - hdrLen
	if n > maxFrame {
		return errFrameSize(uint64(n))
	}
	binary.LittleEndian.PutUint32(b, uint32(n))
	_, err := w.Write(b)
	return err
}

func (e *Enc) U8(v uint8)    { e.b = append(e.buf(), v) }
func (e *Enc) U16(v uint16)  { e.b = binary.LittleEndian.AppendUint16(e.buf(), v) }
func (e *Enc) U32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.buf(), v) }
func (e *Enc) U64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.buf(), v) }
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *Enc) Bytes(p []byte) {
	e.U32(uint32(len(p)))
	e.b = append(e.b, p...)
}

// Dec consumes a payload; the first decoding error sticks (check Err at the
// end of a message). Str and Bytes return copies, and UnmarshalDescriptor
// builds a descriptor of its own, so nothing decoded holds the payload: the
// server reads the next frame into the same storage.
type Dec struct {
	b   []byte
	err error
}

// NewDec wraps a received payload.
func NewDec(payload []byte) *Dec { return &Dec{b: payload} }

// Err returns the sticky decoding error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("mealibd: truncated payload (%d bytes short)", n-len(d.b))
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}
func (d *Dec) U8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}
func (d *Dec) U16() uint16 {
	p := d.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
func (d *Dec) Str() string  { return string(d.take(int(d.U32()))) }
func (d *Dec) Bytes() []byte {
	n := int(d.U32())
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// MarshalDescriptor serialises a descriptor's instruction stream and
// parameter blocks for MsgPlan. The wire carries the builder-side IR, not
// the encoded command-space image: the server re-verifies and re-encodes it
// inside the tenant's namespace.
func MarshalDescriptor(e *Enc, d *descriptor.Descriptor) error {
	e.U32(uint32(len(d.Instrs)))
	comp := 0
	for _, in := range d.Instrs {
		e.U8(uint8(in.Kind))
		switch in.Kind {
		case descriptor.KindComp:
			e.U8(uint8(in.Op))
			p, err := d.ParamsOf(comp)
			if err != nil {
				return err
			}
			comp++
			e.U32(uint32(len(p)))
			for _, f := range p {
				e.U64(f)
			}
		case descriptor.KindLoop:
			for _, c := range in.Counts {
				e.U32(c)
			}
		case descriptor.KindEndPass, descriptor.KindEndLoop:
		default:
			return fmt.Errorf("mealibd: unmarshalable instruction kind %d", in.Kind)
		}
	}
	return nil
}

// UnmarshalDescriptor rebuilds a descriptor from the wire through the
// builder API, so every structural invariant AddComp/AddLoop enforce holds
// for wire-received descriptors too.
func UnmarshalDescriptor(d *Dec) (*descriptor.Descriptor, error) {
	n := int(d.U32())
	if n > maxFrame/8 {
		return nil, fmt.Errorf("mealibd: descriptor instruction count %d too large", n)
	}
	out := &descriptor.Descriptor{}
	for i := 0; i < n && d.err == nil; i++ {
		switch kind := descriptor.InstrKind(d.U8()); kind {
		case descriptor.KindComp:
			op := descriptor.OpCode(d.U8())
			nf := int(d.U32())
			if nf > len(d.b)/8 { // before allocating what a 5-byte header claims
				return nil, fmt.Errorf("mealibd: parameter block of %d fields exceeds the payload", nf)
			}
			p := make(descriptor.Params, nf)
			for j := range p {
				p[j] = d.U64()
			}
			if d.err != nil {
				return nil, d.err
			}
			if err := out.AddComp(op, p); err != nil {
				return nil, err
			}
		case descriptor.KindEndPass:
			out.AddEndPass()
		case descriptor.KindLoop:
			var counts [descriptor.MaxLoopLevels]uint32
			for l := range counts {
				counts[l] = d.U32()
			}
			if d.err != nil {
				return nil, d.err
			}
			if err := out.AddLoop(counts[:]...); err != nil {
				return nil, err
			}
		case descriptor.KindEndLoop:
			out.AddEndLoop()
		default:
			return nil, fmt.Errorf("mealibd: unknown instruction kind %d", kind)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// Report is the wire form of one completed flight's accounting, the MsgWait
// and MsgExecute reply body.
type Report struct {
	// Comps counts accelerator activations; Batched is the number of
	// descriptors the server coalesced into the launch that carried this
	// ticket (1 = launched alone).
	Comps   int64
	Batched int64
	// Time/Energy are the accelerator layer's; Overhead* the invocation
	// overhead (flush + descriptor copy); HostIdleEnergy the blocked host.
	Time           units.Seconds
	Energy         units.Joules
	OverheadTime   units.Seconds
	OverheadEnergy units.Joules
	HostIdleEnergy units.Joules
	// BytesMoved/BytesElided are the launch's DRAM traffic and the traffic
	// chaining elided.
	BytesMoved  units.Bytes
	BytesElided units.Bytes
}

// MarshalReport appends the report to the payload.
func MarshalReport(e *Enc, r *Report) {
	e.U64(uint64(r.Comps))
	e.U64(uint64(r.Batched))
	e.F64(float64(r.Time))
	e.F64(float64(r.Energy))
	e.F64(float64(r.OverheadTime))
	e.F64(float64(r.OverheadEnergy))
	e.F64(float64(r.HostIdleEnergy))
	e.U64(uint64(r.BytesMoved))
	e.U64(uint64(r.BytesElided))
}

// UnmarshalReport decodes a report from the payload.
func UnmarshalReport(d *Dec) Report {
	return Report{
		Comps:          int64(d.U64()),
		Batched:        int64(d.U64()),
		Time:           units.Seconds(d.F64()),
		Energy:         units.Joules(d.F64()),
		OverheadTime:   units.Seconds(d.F64()),
		OverheadEnergy: units.Joules(d.F64()),
		HostIdleEnergy: units.Joules(d.F64()),
		BytesMoved:     units.Bytes(d.U64()),
		BytesElided:    units.Bytes(d.U64()),
	}
}

// ElemKind is the wire's element-kind code for T. A store's or a load's
// elements travel in the little-endian layout of the physical space
// (phys.Encode, phys.Decode), so the server copies them as bytes.
func ElemKind[T phys.Elem]() uint8 {
	switch any(*new(T)).(type) {
	case complex64:
		return ElemC64
	case int32:
		return ElemI32
	}
	return ElemF32
}
