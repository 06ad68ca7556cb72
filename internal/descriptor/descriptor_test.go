package descriptor

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"mealib/internal/phys"
	"mealib/internal/units"
)

func space(t *testing.T) *phys.Space {
	t.Helper()
	s := phys.NewSpace(16 * units.MiB)
	if _, err := s.Map(0x1000, 1*units.MiB); err != nil {
		t.Fatal(err)
	}
	return s
}

func simpleDescriptor(t *testing.T) *Descriptor {
	t.Helper()
	d := &Descriptor{}
	if err := d.AddComp(OpAXPY, Params{100, F32Field(2.5), AddrField(0x2000), AddrField(0x3000)}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	return d
}

func TestOpCodeNames(t *testing.T) {
	if OpFFT.String() != "FFT" || OpAXPY.String() != "AXPY" {
		t.Error("opcode names wrong")
	}
	if OpInvalid.Valid() || OpCode(200).Valid() {
		t.Error("invalid opcodes must not validate")
	}
	if !OpRESHP.Valid() {
		t.Error("RESHP must be valid")
	}
}

func TestFieldPacking(t *testing.T) {
	if F32Of(F32Field(3.25)) != 3.25 {
		t.Error("float32 field round trip")
	}
	if AddrOf(AddrField(0xdead000)) != 0xdead000 {
		t.Error("addr field round trip")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := space(t)
	d := &Descriptor{}
	if err := d.AddComp(OpRESHP, Params{64, 64, AddrField(0x10000), AddrField(0x20000)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpFFT, Params{64, 0, 1, AddrField(0x20000)}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if err := d.AddLoop(128); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpDOT, Params{32, 1, AddrField(0x30000), AddrField(0x40000), AddrField(0x50000)}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()

	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Instrs) != len(d.Instrs) {
		t.Fatalf("instruction count %d, want %d", len(got.Instrs), len(d.Instrs))
	}
	for i := range d.Instrs {
		if got.Instrs[i].Kind != d.Instrs[i].Kind || got.Instrs[i].Op != d.Instrs[i].Op {
			t.Errorf("instruction %d: %+v vs %+v", i, got.Instrs[i], d.Instrs[i])
		}
	}
	if got.Instrs[3].Counts.Total() != 128 {
		t.Errorf("loop count = %d, want 128", got.Instrs[3].Counts.Total())
	}
	p, err := got.ParamsOf(0)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 64 || AddrOf(p[2]) != 0x10000 {
		t.Errorf("params of comp 0 = %v", p)
	}
	p2, err := got.ParamsOf(2)
	if err != nil {
		t.Fatal(err)
	}
	if AddrOf(p2[4]) != 0x50000 {
		t.Errorf("params of comp 2 = %v", p2)
	}
}

func TestCommandLifecycle(t *testing.T) {
	s := space(t)
	d := simpleDescriptor(t)
	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	cmd, err := ReadCommand(s, 0x1000)
	if err != nil || cmd != CmdIdle {
		t.Fatalf("fresh descriptor command = %d, %v; want idle", cmd, err)
	}
	if err := WriteCommand(s, 0x1000, CmdStart); err != nil {
		t.Fatal(err)
	}
	cmd, err = ReadCommand(s, 0x1000)
	if err != nil || cmd != CmdStart {
		t.Fatalf("command = %d, %v; want start", cmd, err)
	}
}

func TestCommandRequiresMagic(t *testing.T) {
	s := space(t)
	if err := WriteCommand(s, 0x1000, CmdStart); err == nil {
		t.Error("WriteCommand on garbage must fail")
	}
	if _, err := ReadCommand(s, 0x1000); err == nil {
		t.Error("ReadCommand on garbage must fail")
	}
	if _, err := Decode(s, 0x1000); err == nil {
		t.Error("Decode on garbage must fail")
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Descriptor
	}{
		{"empty", func() *Descriptor { return &Descriptor{} }},
		{"unterminated pass", func() *Descriptor {
			d := &Descriptor{}
			_ = d.AddComp(OpAXPY, nil)
			return d
		}},
		{"endpass without comp", func() *Descriptor {
			d := &Descriptor{}
			d.AddEndPass()
			return d
		}},
		{"nested loop", func() *Descriptor {
			d := &Descriptor{}
			_ = d.AddLoop(2)
			_ = d.AddLoop(2)
			return d
		}},
		{"unterminated loop", func() *Descriptor {
			d := &Descriptor{}
			_ = d.AddLoop(2)
			_ = d.AddComp(OpFFT, nil)
			d.AddEndPass()
			return d
		}},
		{"endloop without loop", func() *Descriptor {
			d := &Descriptor{}
			_ = d.AddComp(OpFFT, nil)
			d.AddEndPass()
			d.AddEndLoop()
			return d
		}},
		{"loop inside open pass", func() *Descriptor {
			d := &Descriptor{}
			_ = d.AddComp(OpFFT, nil)
			_ = d.AddLoop(2)
			return d
		}},
	}
	for _, c := range cases {
		if err := c.build().Validate(); err == nil {
			t.Errorf("%s: Validate must fail", c.name)
		}
	}
}

func TestAddErrors(t *testing.T) {
	d := &Descriptor{}
	if err := d.AddComp(OpInvalid, nil); err == nil {
		t.Error("invalid opcode must fail")
	}
	if err := d.AddLoop(0); err == nil {
		t.Error("zero-count loop must fail")
	}
	if err := d.AddLoop(); err == nil {
		t.Error("no-level loop must fail")
	}
	if err := d.AddLoop(1, 2, 3, 4, 5); err == nil {
		t.Error("too-deep loop must fail")
	}
	if err := d.AddLoop(2, 0); err == nil {
		t.Error("zero inner level must fail")
	}
}

func TestMultiLevelLoopRoundTrip(t *testing.T) {
	s := space(t)
	d := &Descriptor{}
	if err := d.AddLoop(3, 5, 7); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpDOT, Params{1}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(s, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	lc := got.Instrs[0].Counts
	if lc.Total() != 3*5*7 {
		t.Errorf("loop total = %d, want 105 (counts %v)", lc.Total(), lc)
	}
	// Right-aligned: levels are [1 3 5 7].
	if lc[0] != 1 || lc[1] != 3 || lc[2] != 5 || lc[3] != 7 {
		t.Errorf("counts = %v, want [1 3 5 7]", lc)
	}
}

func TestLoopCountsTotal(t *testing.T) {
	if (LoopCounts{0, 0, 0, 0}).Total() != 1 {
		t.Error("all-zero counts normalise to 1")
	}
	if (LoopCounts{2, 3, 1, 1}).Total() != 6 {
		t.Error("total must multiply levels")
	}
}

// TestValidateRejectsOverflowingLoop: three levels of 2^32-1 multiply past
// int64; the product used to wrap to 12 884 901 887, which looked like a
// valid trip count the executor and the verifier would each reinterpret.
func TestValidateRejectsOverflowingLoop(t *testing.T) {
	const top = 1<<32 - 1
	looped := func(counts ...uint32) *Descriptor {
		d := &Descriptor{}
		if err := d.AddLoop(counts...); err != nil {
			t.Fatal(err)
		}
		_ = d.AddComp(OpAXPY, Params{1})
		d.AddEndPass()
		d.AddEndLoop()
		return d
	}
	for _, counts := range [][]uint32{{top, top, top}, {top, top}, {top, top, top, top}, {2, 1 << 31, 1 << 31}} {
		d := looped(counts...)
		if err := d.Validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("Validate(LOOP %v) = %v, want a trip-count overflow (Total = %d)", counts, err, d.Instrs[0].Counts.Total())
		}
		if err := d.Encode(space(t), 0x1000); err == nil {
			t.Errorf("Encode accepted LOOP %v", counts)
		}
	}
	// The largest counts that fit stay valid, and Decode applies the same
	// check to an image whose counts were raised after it was encoded.
	s := space(t)
	d := looped(1<<31-1, 1<<31-1, 2)
	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatalf("LOOP of %d iterations: %v", d.Instrs[0].Counts.Total(), err)
	}
	if _, err := Decode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint32(0x1000+crSize+16+8, top); err != nil { // level 3 of instruction 0
		t.Fatal(err)
	}
	if _, err := Decode(s, 0x1000); err == nil {
		t.Error("Decode accepted an image whose LOOP trip count overflows")
	}
}

func TestSizeMatchesEncoding(t *testing.T) {
	s := space(t)
	d := simpleDescriptor(t)
	sz := d.Size()
	// CR 32 + 2 instructions x 32 + one param block 4+8*4 = 132.
	if sz != 32+64+36 {
		t.Errorf("Size = %v, want 132", sz)
	}
	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	// Last byte of the encoding must be inside the region; one past may not
	// be part of the descriptor.
	if _, err := s.ReadUint32(0x1000 + phys.Addr(sz) - 4); err != nil {
		t.Errorf("descriptor tail unreadable: %v", err)
	}
}

func TestEncodeValidates(t *testing.T) {
	s := space(t)
	d := &Descriptor{}
	_ = d.AddComp(OpAXPY, nil) // unterminated pass
	if err := d.Encode(s, 0x1000); err == nil {
		t.Error("Encode must validate first")
	}
}

func TestEncodeOutsideMappedSpace(t *testing.T) {
	s := phys.NewSpace(1 * units.MiB) // nothing mapped
	d := simpleDescriptor(t)
	if err := d.Encode(s, 0x1000); err == nil {
		t.Error("encoding into unmapped memory must fail")
	}
}

func TestDecodeRejectsCorruptParamSize(t *testing.T) {
	s := space(t)
	d := simpleDescriptor(t)
	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	// Corrupt the field count of the first param block.
	prBase, err := s.ReadUint64(0x1000 + 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteUint32(phys.Addr(prBase), 99); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(s, 0x1000); err == nil {
		t.Error("decode must reject inconsistent parameter sizes")
	}
}

func TestDisassemble(t *testing.T) {
	d := &Descriptor{}
	if err := d.AddLoop(4, 8); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpDOT, Params{1}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	_ = d.AddComp(OpRESHP, Params{2})
	d.AddEndPass()
	out := d.Disassemble()
	for _, want := range []string{"LOOP", "total=32", "COMP    DOT", "ENDLOOP", "COMP    RESHP", "ENDPASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("disassembly missing %q:\n%s", want, out)
		}
	}
}

// TestImageIsEncodeAtAnyBase: the base-0 image with its address words advanced
// by the base is byte for byte what Encode writes there, so the layer may take
// "the bytes in the slot equal the image" for "the slot decodes to this
// descriptor".
func TestImageIsEncodeAtAnyBase(t *testing.T) {
	d := simpleDescriptor(t)
	if err := d.AddLoop(3, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpDOT, Params{32, 1, AddrField(0x30000), AddrField(0x40000), AddrField(0x50000)}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpFFT, Params{64, 0, 1, AddrField(0x20000)}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	img, ptrs, err := d.Image()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != int(d.Size()) || len(ptrs) != 1+d.Comps() {
		t.Fatalf("image of %d bytes with %d address words; the descriptor is %v with %d comps", len(img), len(ptrs), d.Size(), d.Comps())
	}
	s := space(t)
	for _, base := range []phys.Addr{0x1000, 0x2040, 0x80000} {
		if err := d.Encode(s, base); err != nil {
			t.Fatal(err)
		}
		want, err := s.ViewBytes(base, len(img))
		if err != nil {
			t.Fatal(err)
		}
		got := append([]byte(nil), img...)
		for _, off := range ptrs {
			binary.LittleEndian.PutUint64(got[off:], binary.LittleEndian.Uint64(got[off:])+uint64(base))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("base %v: the rebased image differs from Encode's bytes", base)
		}
	}
}

// TestCloneIsDeep: nothing done to the original reaches the clone.
func TestCloneIsDeep(t *testing.T) {
	p := Params{100, F32Field(2.5), AddrField(0x2000), AddrField(0x3000)}
	d := &Descriptor{}
	if err := d.AddComp(OpAXPY, p); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	c := d.Clone()
	want := c.Disassemble()
	p[0] = 7
	d.Instrs[0].Op = OpDOT
	if err := d.AddComp(OpFFT, Params{64, 0, 1, AddrField(0x20000)}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	if got := c.Disassemble(); got != want || c.Comps() != 1 {
		t.Fatalf("the clone changed with the original:\n%s\nwant:\n%s", got, want)
	}
	if q, _ := c.ParamsOf(0); q[0] != 100 {
		t.Fatalf("the clone shares the original's parameter block: N = %d", q[0])
	}
}
