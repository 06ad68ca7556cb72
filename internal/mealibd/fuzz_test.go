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
	"mealib/internal/phys"
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

// planFrame is a MsgPlan request installing d: its image at base 0.
func planFrame(tb testing.TB, d *descriptor.Descriptor) []byte {
	tb.Helper()
	img, _, err := d.Image()
	if err != nil {
		tb.Fatal(err)
	}
	return frame(MsgPlan, func(e *Enc) { e.Raw(img) })
}

// tooMuchWork reports whether a plan frame asks for more loop iterations
// than a fuzz execution should spend: the functional engine runs every
// iteration, and a zero-stride LOOP of 2^32 trips is a valid descriptor. It
// reads the frame with the server's reader.
func tooMuchWork(payload []byte) bool {
	if len(payload) == 0 || payload[0] != MsgPlan {
		return false
	}
	d, err := descriptor.DecodeImage(payload[1:], 0)
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

// servePipe serves one connection over net.Pipe on a fresh fuzz runtime. It
// returns the client end and drop, which closes it, waits for the handler and
// checks that nothing of the tenant is left behind: no quota held, no flight
// in the runtime, the link back with the host and the whole data space
// allocatable again.
func servePipe(t *testing.T, cfg Config) (net.Conn, func()) {
	t.Helper()
	rt := fuzzRuntime(t)
	cfg.Runtime = rt
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cli, srvEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.serveConn(srvEnd)
	}()
	// A reply that never comes must fail the run, not hang it; closing the
	// pipe when a run fails unblocks the server and any writer.
	watchdog := time.AfterFunc(time.Minute, func() { _ = cli.Close() })
	t.Cleanup(func() {
		watchdog.Stop()
		_ = cli.Close()
	})
	return cli, func() {
		t.Helper()
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
	}
}

// FuzzServerFrames drives one server connection (servePipe) with an arbitrary
// sequence of request frames, then drops it. Pipelined, a writer goroutine
// sends every frame back to back while the test reads the replies, so frames
// meet the server's buffered reader and reused payload storage in runs;
// otherwise each frame waits for its reply. The server must never panic;
// every frame is answered by one well-formed reply (or the connection is
// closed); and once the handler has returned nothing of the tenant is left
// behind.
//
// Gate (check.sh): the mealibd wire.
func FuzzServerFrames(f *testing.F) {
	// The allocator is deterministic, so the addresses a scratch runtime
	// hands out are the ones the fuzzed server's first buffers get.
	const bufBytes = 4 * units.KiB
	scratch := fuzzRuntime(f)
	var sbuf [4]*mealibrt.Buffer
	for i := range sbuf {
		b, err := scratch.MemAlloc(bufBytes)
		if err != nil {
			f.Fatal(err)
		}
		sbuf[i] = b
	}
	axpyOver := func(x, y *mealibrt.Buffer) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
			N: 16, Alpha: 2, X: x.PA(), Y: y.PA(), IncX: 1, IncY: 1,
		}.Params()); err != nil {
			f.Fatal(err)
		}
		d.AddEndPass()
		return d
	}
	hello := frame(MsgHello, func(e *Enc) { e.Str("fuzz"); e.U64(0); e.U32(0); e.U32(0) })
	alloc := frame(MsgAlloc, func(e *Enc) { e.U32(0); e.U64(uint64(bufBytes)) })
	store := func(id uint64, off int64) []byte {
		return frame(MsgStore, func(e *Enc) {
			e.U64(id)
			e.U64(uint64(off))
			e.U8(ElemF32)
			e.Bytes(phys.Encode(make([]float32, 16)))
		})
	}
	load := func(id uint64, off int64) []byte {
		return frame(MsgLoad, func(e *Enc) { e.U64(id); e.U64(uint64(off)); e.U8(ElemF32); e.U32(16) })
	}
	id := func(msg uint8, id uint64) []byte { return frame(msg, func(e *Enc) { e.U64(id) }) }
	plan := planFrame(f, axpyOver(sbuf[0], sbuf[1]))
	// Buffers get ids 1 and 2, the plan 3, its first ticket 4.
	f.Add(false, packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), plan, id(MsgSubmit, 3), id(MsgWait, 4),
		load(2, 0), frame(MsgStats, nil), id(MsgDestroyPlan, 3), id(MsgFree, 1), id(MsgFree, 2)))
	// The two offsets that used to reach the neighbouring buffer.
	f.Add(false, packFrames(hello, alloc, alloc, store(2, -int64(bufBytes)), store(1, int64(bufBytes)),
		load(2, -int64(bufBytes)), load(1, int64(bufBytes)), load(1, 0)))
	// A client that vanishes with a launch in flight and nothing freed.
	f.Add(false, packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), plan, id(MsgSubmit, 3), id(MsgSubmit, 3)))
	// A comp claiming 2^25 parameter fields in a short plan frame: the
	// parameter size and the field count of the plan's one block say so. A
	// decoder once allocated and walked all of them.
	huge := append([]byte(nil), plan...)
	pr := 1 + binary.LittleEndian.Uint64(huge[1+16:])
	binary.LittleEndian.PutUint32(huge[1+32+4:], 4+8<<25)
	binary.LittleEndian.PutUint32(huge[pr:], 1<<25)
	f.Add(false, packFrames(hello, huge))
	// The plan with one byte of its image flipped, the COMP's opcode from AXPY
	// to DOT over AXPY's parameters, then a launch of what was installed, if
	// anything was.
	flipped := append([]byte(nil), plan...)
	flipped[1+32+1] ^= byte(descriptor.OpAXPY ^ descriptor.OpDOT)
	f.Add(false, packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), flipped, id(MsgExecute, 3)))
	// No hello, an unknown type, an empty frame, a truncated body.
	f.Add(false, packFrames(alloc, []byte{0xff}, nil, hello[:3]))
	// Execute: a plan run twice with a load between, then a destroyed plan
	// (id 3 is unknown by then), one frame at a time and pipelined.
	executes := packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), plan, id(MsgExecute, 3), load(2, 0),
		id(MsgExecute, 3), frame(MsgStats, nil), id(MsgDestroyPlan, 3), id(MsgExecute, 3), id(MsgFree, 1), id(MsgFree, 2))
	f.Add(false, executes)
	f.Add(true, executes)
	// An Execute that joins a pending Submit's batch (plans 5 and 6 are
	// disjoint; the Submit's ticket is 7), pipelined.
	f.Add(true, packFrames(hello, alloc, alloc, alloc, alloc, store(1, 0), store(2, 0), store(3, 0), store(4, 0),
		plan, planFrame(f, axpyOver(sbuf[2], sbuf[3])), id(MsgSubmit, 5), id(MsgExecute, 6), id(MsgWait, 7)))
	// An Execute of a plan whose buffer was freed, and a client that vanishes
	// with an Execute's batch partner still pending.
	f.Add(true, packFrames(hello, alloc, alloc, store(1, 0), store(2, 0), plan, id(MsgFree, 2), id(MsgExecute, 3),
		id(MsgSubmit, 3)))

	f.Fuzz(func(t *testing.T, pipelined bool, in []byte) {
		frames := unpackFrames(in)
		for _, p := range frames {
			if tooMuchWork(p) {
				t.Skip("more loop iterations than a fuzz execution should run")
			}
		}
		cli, drop := servePipe(t, Config{})
		if pipelined {
			go func() {
				for _, p := range frames {
					if WriteFrame(cli, p) != nil {
						return // the run failed and closed the pipe
					}
				}
			}()
		}
		for i, p := range frames {
			if !pipelined {
				if err := WriteFrame(cli, p); err != nil {
					t.Fatalf("frame %d: write: %v", i, err)
				}
			}
			reply, err := ReadFrame(cli)
			if err != nil {
				t.Fatalf("frame %d: no reply: %v", i, err)
			}
			if len(reply) == 0 || (reply[0] != ReplyOK && reply[0] != ReplyErr) {
				t.Fatalf("frame %d: malformed reply % x", i, reply)
			}
		}
		drop()
	})
}
