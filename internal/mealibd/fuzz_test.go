package mealibd

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibrt"
	"mealib/internal/telemetry"
	"mealib/internal/units"
)

// fuzzDataSize is the whole data space of the fuzzed server: small, so the
// work one comp can be asked to do is bounded by what fits in it.
const fuzzDataSize = 1 * units.MiB

func fuzzRuntime(t testing.TB) *mealibrt.Runtime {
	t.Helper()
	cfg := mealibrt.DefaultConfig()
	cfg.Driver.DataSize = fuzzDataSize
	cfg.Tracer = telemetry.New()
	cfg.WavePipeline = true
	rt, err := mealibrt.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// packFrames is the fuzz input format: each request payload behind a
// little-endian uint16 length. A length running past the input takes what
// is left, so every byte string is some frame sequence.
func packFrames(frames ...[]byte) []byte {
	var out []byte
	for _, p := range frames {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
	}
	return out
}

func unpackFrames(in []byte) [][]byte {
	var frames [][]byte
	for len(in) >= 2 {
		n := int(binary.LittleEndian.Uint16(in))
		in = in[2:]
		if n > len(in) {
			n = len(in)
		}
		frames = append(frames, in[:n])
		in = in[n:]
	}
	return frames
}

func frame(msg uint8, body func(*Enc)) []byte {
	e := &Enc{}
	e.U8(msg)
	if body != nil {
		body(e)
	}
	return e.Payload()
}

// tooMuchWork reports whether a plan frame asks for more loop iterations
// than a fuzz execution should spend: the functional engine runs every
// iteration, and a zero-stride LOOP of 2^32 trips is a valid descriptor.
func tooMuchWork(payload []byte) bool {
	if len(payload) == 0 || payload[0] != MsgPlan {
		return false
	}
	d, err := UnmarshalDescriptor(NewDec(payload[1:]))
	if err != nil {
		return false
	}
	total := uint64(0)
	for _, in := range d.Instrs {
		if in.Kind != descriptor.KindLoop {
			continue
		}
		trips := uint64(1)
		for _, c := range in.Counts {
			if c > 1 {
				trips *= uint64(c)
			}
			if trips > 4096 {
				return true
			}
		}
		total += trips
	}
	return total > 4096
}

// FuzzServerFrames drives one server connection over net.Pipe with an
// arbitrary sequence of request frames, then drops it. The server must
// never panic; every frame is answered by one well-formed reply (or the
// connection is closed); and once the handler has returned nothing of the
// tenant is left behind: no quota held, no flight in the runtime, the link
// back with the host and the whole data space allocatable again.
func FuzzServerFrames(f *testing.F) {
	// The allocator is deterministic, so the addresses a scratch runtime
	// hands out are the ones the fuzzed server's first two buffers get.
	const bufBytes = 4 * units.KiB
	scratch := fuzzRuntime(f)
	sx, err := scratch.MemAlloc(bufBytes)
	if err != nil {
		f.Fatal(err)
	}
	sy, err := scratch.MemAlloc(bufBytes)
	if err != nil {
		f.Fatal(err)
	}
	axpy := &descriptor.Descriptor{}
	if err := axpy.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: 16, Alpha: 2, X: sx.PA(), Y: sy.PA(), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		f.Fatal(err)
	}
	axpy.AddEndPass()
	var planErr error
	hello := frame(MsgHello, func(e *Enc) { e.Str("fuzz"); e.U64(0); e.U32(0); e.U32(0) })
	alloc := frame(MsgAlloc, func(e *Enc) { e.U32(0); e.U64(uint64(bufBytes)) })
	store := func(id uint64, off int64) []byte {
		return frame(MsgStore, func(e *Enc) {
			e.U64(id)
			e.U64(uint64(off))
			e.U8(ElemF32)
			e.Bytes(F32ToBytes(make([]float32, 16)))
		})
	}
	load := func(id uint64, off int64) []byte {
		return frame(MsgLoad, func(e *Enc) { e.U64(id); e.U64(uint64(off)); e.U8(ElemF32); e.U32(16) })
	}
	id := func(msg uint8, id uint64) []byte { return frame(msg, func(e *Enc) { e.U64(id) }) }
	plan := frame(MsgPlan, func(e *Enc) { planErr = MarshalDescriptor(e, axpy) })
	if planErr != nil {
		f.Fatal(planErr)
	}
	// Buffers get ids 1 and 2, the plan 3, its first ticket 4.
	f.Add(packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), plan, id(MsgSubmit, 3), id(MsgWait, 4),
		load(2, 0), frame(MsgStats, nil), id(MsgDestroyPlan, 3), id(MsgFree, 1), id(MsgFree, 2)))
	// The two offsets that used to reach the neighbouring buffer.
	f.Add(packFrames(hello, alloc, alloc, store(2, -int64(bufBytes)), store(1, int64(bufBytes)),
		load(2, -int64(bufBytes)), load(1, int64(bufBytes)), load(1, 0)))
	// A client that vanishes with a launch in flight and nothing freed.
	f.Add(packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), plan, id(MsgSubmit, 3), id(MsgSubmit, 3)))
	// A comp claiming 2^25 parameter fields in a 7-byte plan frame: the
	// decoder used to allocate and walk all of them.
	f.Add(packFrames(hello, frame(MsgPlan, func(e *Enc) {
		e.U32(1)
		e.U8(uint8(descriptor.KindComp))
		e.U8(uint8(descriptor.OpAXPY))
		e.U32(1 << 25)
	})))
	// No hello, an unknown type, an empty frame, a truncated body.
	f.Add(packFrames(alloc, []byte{0xff}, nil, hello[:3]))

	f.Fuzz(func(t *testing.T, in []byte) {
		frames := unpackFrames(in)
		for _, p := range frames {
			if tooMuchWork(p) {
				t.Skip("more loop iterations than a fuzz execution should run")
			}
		}
		rt := fuzzRuntime(t)
		srv, err := New(Config{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		cli, srvEnd := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.serveConn(srvEnd)
		}()
		// A reply that never comes must fail the run, not hang it.
		watchdog := time.AfterFunc(time.Minute, func() { _ = cli.Close() })
		defer watchdog.Stop()
		for i, p := range frames {
			// One Write per frame: a zero-length Write on a net.Pipe blocks
			// until the peer's next Read, which an empty payload never causes.
			if _, err := cli.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(p))), p...)); err != nil {
				t.Fatalf("frame %d: write: %v", i, err)
			}
			reply, err := ReadFrame(cli)
			if err != nil {
				t.Fatalf("frame %d: no reply: %v", i, err)
			}
			if len(reply) == 0 || (reply[0] != ReplyOK && reply[0] != ReplyErr) {
				t.Fatalf("frame %d: malformed reply % x", i, reply)
			}
		}
		if err := cli.Close(); err != nil {
			t.Fatal(err)
		}
		<-done

		for name, v := range rt.Tracer().Metrics().Snapshot().Gauges {
			held := strings.HasPrefix(name, "session.") || name == "rt.inflight"
			if held && v != 0 {
				t.Errorf("%s = %d after the connection dropped, want 0", name, v)
			}
		}
		if err := rt.CheckInvariants(); err != nil {
			t.Errorf("after the connection dropped: %v", err)
		}
		whole, err := rt.MemAlloc(fuzzDataSize)
		if err != nil {
			t.Fatalf("the data space is not whole again after the connection dropped: %v", err)
		}
		if err := rt.MemFree(whole); err != nil {
			t.Fatal(err)
		}
	})
}
