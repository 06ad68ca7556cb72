package mealibd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
)

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocatesWhatArrives: a frame header is the peer's claim, not
// bytes in hand. A header claiming 2^28 bytes followed by three must cost
// about what arrived, not 256 MiB, and a real 16 MiB frame must still
// round-trip.
//
// Gate (check.sh): the mealibd wire.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	lie := append(binary.LittleEndian.AppendUint32(nil, 1<<28), 1, 2, 3)
	var err error
	n := allocated(func() { _, err = ReadFrame(bytes.NewReader(lie)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) || n >= 1<<20 {
		t.Errorf("a header claiming 2^28 bytes, then 3 bytes: ReadFrame allocated %d B and returned %v; want under 1 MiB and io.ErrUnexpectedEOF", n, err)
	}

	big := make([]byte, 16<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, big); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&wire)
	if err != nil || !bytes.Equal(got, big) {
		t.Errorf("a 16 MiB frame did not round-trip: %d bytes, error %v", len(got), err)
	}
}

// FuzzReadFrame: arbitrary bytes never panic the frame reader, and reading
// every frame they hold allocates at most about twice the input plus the
// first growth step.
//
// Gate (check.sh): the mealibd wire.
func FuzzReadFrame(f *testing.F) {
	framed := func(payloads ...[]byte) []byte {
		var b bytes.Buffer
		for _, p := range payloads {
			if err := WriteFrame(&b, p); err != nil {
				f.Fatal(err)
			}
		}
		return b.Bytes()
	}
	f.Add([]byte{})
	f.Add(framed(nil, []byte{MsgStats}, bytes.Repeat([]byte{7}, 300)))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<28), 1, 2, 3))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 1<<28+1), 1))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, smallFrame+1), bytes.Repeat([]byte{1}, 4096)...))
	f.Add(append(framed(bytes.Repeat([]byte{9}, smallFrame+100)), 0, 0, 1, 0)) // a large frame, then a header that lies
	f.Fuzz(func(t *testing.T, in []byte) {
		// Twice the input, one first step for a header that lies, and slack:
		// a quarter of the input for size-class rounding (a large frame's
		// allocations round up to whole 8 KiB pages) and 1 KiB for the error.
		limit := 2*uint64(len(in)) + uint64(len(in))/4 + smallFrame + 1024
		var n uint64
		frames := 0
		// TotalAlloc is the process's: a goroutine of the fuzzing engine can
		// allocate during a measurement, so an excess must repeat.
		for try := 0; try < 3; try++ {
			r := bytes.NewReader(in)
			frames = 0
			n = allocated(func() {
				for {
					if _, err := ReadFrame(r); err != nil {
						return
					}
					frames++
				}
			})
			if n <= limit {
				return
			}
		}
		t.Fatalf("%d input bytes (%d whole frames) allocated %d B, over %d", len(in), frames, n, limit)
	})
}

// TestServerKeepsNoPayload pins what makes the server's reused request buffer
// safe: nothing it keeps from a request aliases the request's payload. Each
// request whose contents outlive it (the tenant name, a plan's descriptor,
// stored data) is followed by a junk frame of the same length, which the
// server reads over the same storage; the name, the plan and the data must
// come out whole.
//
// Gate (check.sh): the mealibd wire.
func TestServerKeepsNoPayload(t *testing.T) {
	cli, drop := servePipe(t, Config{BatchMax: 1})
	send := func(p []byte) *Dec {
		t.Helper()
		if err := WriteFrame(cli, p); err != nil {
			t.Fatal(err)
		}
		reply, err := ReadFrame(cli)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDec(reply)
		if status := d.U8(); status != ReplyOK {
			t.Fatalf("request % x: reply % x", p[:1], reply)
		}
		return d
	}
	// sendThenJunk sends p, then a frame of p's length that is no request.
	sendThenJunk := func(p []byte) *Dec {
		t.Helper()
		d := send(p)
		if err := WriteFrame(cli, bytes.Repeat([]byte{0xee}, len(p))); err != nil {
			t.Fatal(err)
		}
		if reply, err := ReadFrame(cli); err != nil || reply[0] != ReplyErr {
			t.Fatalf("junk frame: reply % x, error %v", reply, err)
		}
		return d
	}

	const tenant = "keeps-nothing"
	sendThenJunk(frame(MsgHello, func(e *Enc) { e.Str(tenant); e.U64(0); e.U32(0); e.U32(0) }))
	const n = 256
	alloc := frame(MsgAlloc, func(e *Enc) { e.U32(0); e.U64(4 * n) })
	bufs := [2]struct{ id, pa uint64 }{}
	for i := range bufs {
		d := send(alloc)
		bufs[i].id, bufs[i].pa = d.U64(), d.U64()
	}
	xs, ys := make([]float32, n), make([]float32, n)
	for i := range xs {
		xs[i], ys[i] = float32(i%7), 1
	}
	for i, vs := range [][]float32{xs, ys} {
		sendThenJunk(frame(MsgStore, func(e *Enc) {
			e.U64(bufs[i].id)
			e.U64(0)
			e.U8(ElemF32)
			e.Bytes(phys.Encode(vs))
		}))
	}
	axpy := &descriptor.Descriptor{}
	if err := axpy.AddComp(descriptor.OpAXPY, accel.AxpyArgs{
		N: n, Alpha: 2, X: phys.Addr(bufs[0].pa), Y: phys.Addr(bufs[1].pa), IncX: 1, IncY: 1,
	}.Params()); err != nil {
		t.Fatal(err)
	}
	axpy.AddEndPass()
	var merr error
	plan := sendThenJunk(frame(MsgPlan, func(e *Enc) { merr = MarshalDescriptor(e, axpy) })).U64()
	if merr != nil {
		t.Fatal(merr)
	}
	send(frame(MsgExecute, func(e *Enc) { e.U64(plan) }))
	got := phys.Decode[float32](send(frame(MsgLoad, func(e *Enc) { e.U64(bufs[1].id); e.U64(0); e.U8(ElemF32); e.U32(n) })).Bytes())
	for i, v := range got {
		if want := 1 + 2*xs[i]; v != want {
			t.Fatalf("y[%d] = %v, want %v: a plan or a store kept the request buffer", i, v, want)
		}
	}
	js := send(frame(MsgStats, nil)).Bytes()
	if !bytes.Contains(js, []byte(`"tenant":"`+tenant+`"`)) {
		t.Errorf("the session's name did not survive the junk frame: %.60s…", js)
	}
	drop()
}
