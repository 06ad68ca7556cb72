package mealibd_test

import (
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/mealibd"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// The image of loopedAXPY: a 32-byte control region, then 32-byte entries
// (LOOP, COMP, ENDPASS, ENDLOOP), then the COMP's parameter block.
const (
	offNInstr  = 8
	offPRBase  = 16
	offTotal   = 24
	offLoop    = 32      // the LOOP entry; its level-0 count is at +4
	offComp    = 32 + 32 // the COMP entry: parameter size at +4, pointer at +8
	imgEntries = 4
)

// loopedAXPY is LOOP 3 { PASS { COMP AXPY y += 2x } } over x and y.
func loopedAXPY(t *testing.T, x, y phys.Addr) *descriptor.Descriptor {
	t.Helper()
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(3); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 16, Alpha: 2, X: x, Y: y, IncX: 1, IncY: 1}.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	return d
}

// malformedImages is one table of images the reader must refuse, each a
// change to a valid image as it stands at base: the header's bounds, the
// parameter pointers and sizes (bounds_test.go's cases in the descriptor
// package), a LOOP level of zero and a parameter block claiming 2^25 fields
// that the image does not hold.
var malformedImages = []struct {
	name string
	mut  func(img []byte, base uint64)
}{
	{"no magic", func(img []byte, _ uint64) { img[0] ^= 0xff }},
	{"instruction region past the total", func(img []byte, _ uint64) { put32(img, offNInstr, 1<<20) }},
	{"total below the control region", func(img []byte, _ uint64) { put64(img, offTotal, 31) }},
	{"total truncating the instruction region", func(img []byte, _ uint64) { put64(img, offTotal, 33) }},
	{"total wrapping the address space", func(img []byte, _ uint64) { put64(img, offTotal, ^uint64(0)-16) }},
	{"total past the image", func(img []byte, _ uint64) { put64(img, offTotal, 1<<40) }},
	{"PR base off by a word", func(img []byte, _ uint64) { put64(img, offPRBase, get64(img, offPRBase)+8) }},
	{"parameter block before the PR", func(img []byte, base uint64) { put64(img, offComp+8, base) }},
	{"parameter block past the image", func(img []byte, base uint64) { put64(img, offComp+8, base+uint64(len(img))) }},
	{"parameter size overrunning the image", func(img []byte, _ uint64) { put32(img, offComp+4, uint32(len(img))) }},
	{"parameter size below its count word", func(img []byte, _ uint64) { put32(img, offComp+4, 3) }},
	{"field count disagreeing with the size", func(img []byte, base uint64) { put32(img, int(get64(img, offComp+8)-base), 99) }},
	{"LOOP level of zero", func(img []byte, _ uint64) { put32(img, offLoop+4, 0) }},
	{"2^25 fields in a short image", func(img []byte, base uint64) {
		put32(img, offComp+4, 4+8<<25)
		put32(img, int(get64(img, offComp+8)-base), 1<<25)
	}},
}

func put32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func put64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func get64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off:]) }

// imageAt is d's image as it stands at base.
func imageAt(t *testing.T, d *descriptor.Descriptor, base uint64) []byte {
	t.Helper()
	img, ptrs, err := d.Image()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range ptrs {
		put64(img, off, get64(img, off)+base)
	}
	return img
}

// TestMalformedImagesRefusedAtEveryEntry runs malformedImages through both
// entries to the one reader of the descriptor layout: descriptor.Decode from
// the command space (at a base inside one region and at a slot straddling a
// region seam) and a MsgPlan frame to a server, which must answer ReplyErr
// and go on answering. What the reader allocates for a payload follows the
// bytes present: no row, the 2^25-field claim included, costs more than the
// payload and a fixed allowance.
//
// Gate (check.sh): the mealibd wire.
func TestMalformedImagesRefusedAtEveryEntry(t *testing.T) {
	s := phys.NewSpace(16 * units.MiB)
	// Two regions meet at split: a slot at straddle has its control region
	// in the first and the rest in the second.
	const split = 0x200000
	const straddle = split - 32
	for _, r := range [][2]phys.Addr{{0x1000, 1 << 20}, {split - 4096, 4096}, {split, 4096}} {
		if _, err := s.Map(r[0], units.Bytes(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, nil)
	c, err := net.Dial("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	request := func(msg uint8, body func(*mealibd.Enc)) (*mealibd.Dec, uint8) {
		t.Helper()
		e := &mealibd.Enc{}
		e.U8(msg)
		if body != nil {
			body(e)
		}
		if err := e.WriteFrame(c); err != nil {
			t.Fatal(err)
		}
		reply, err := mealibd.ReadFrame(c)
		if err != nil {
			t.Fatalf("message %d: no reply: %v", msg, err)
		}
		d := mealibd.NewDec(reply)
		return d, d.U8()
	}
	request(mealibd.MsgHello, func(e *mealibd.Enc) { e.Str("malformed"); e.U64(0); e.U32(0); e.U32(0) })
	var pa [2]phys.Addr
	for i := range pa {
		d, status := request(mealibd.MsgAlloc, func(e *mealibd.Enc) { e.U32(0); e.U64(64) })
		if status != mealibd.ReplyOK {
			t.Fatal("alloc refused")
		}
		d.U64()
		pa[i] = phys.Addr(d.U64())
	}
	desc := loopedAXPY(t, pa[0], pa[1])
	if len(desc.Instrs) != imgEntries {
		t.Fatalf("%d entries, want %d", len(desc.Instrs), imgEntries)
	}
	plan := func(img []byte) (*mealibd.Dec, uint8) {
		return request(mealibd.MsgPlan, func(e *mealibd.Enc) { e.Raw(img) })
	}
	if _, status := plan(imageAt(t, desc, 0)); status != mealibd.ReplyOK {
		t.Fatal("the unchanged image was refused over the wire")
	}
	for _, base := range []phys.Addr{0x1000, straddle} {
		if err := descriptor.InstallImage(s, base, imageAt(t, desc, uint64(base)), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := descriptor.Decode(s, base); err != nil {
			t.Fatalf("the unchanged image at %v: %v", base, err)
		}
	}

	for _, row := range malformedImages {
		for _, base := range []phys.Addr{0x1000, straddle} {
			img := imageAt(t, desc, uint64(base))
			row.mut(img, uint64(base))
			if err := descriptor.InstallImage(s, base, img, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := descriptor.Decode(s, base); err == nil {
				t.Errorf("%s: Decode at %v accepted it", row.name, base)
			}
		}

		img := imageAt(t, desc, 0)
		row.mut(img, 0)
		d, status := plan(img)
		if status != mealibd.ReplyErr {
			t.Errorf("%s: MsgPlan answered %d, want ReplyErr", row.name, status)
		} else if d.U16(); !strings.HasPrefix(d.Str(), "descriptor: ") {
			t.Errorf("%s: refused, but not by the reader", row.name)
		}
		if _, status := request(mealibd.MsgStats, nil); status != mealibd.ReplyOK {
			t.Fatalf("%s: the connection stopped answering", row.name)
		}

		const runs = 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := descriptor.DecodeImage(img, 0); err == nil {
				t.Fatalf("%s: DecodeImage accepted it", row.name)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > uint64(len(img))+1024 {
			t.Errorf("%s: decoding a %d-byte payload allocated %d bytes", row.name, len(img), per)
		}
	}
}
