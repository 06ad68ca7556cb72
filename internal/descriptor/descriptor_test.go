package descriptor

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
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
	slot, err := s.ViewBytes(0x1000, SlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	cmd, err := CommandOf(slot, 0x1000)
	if err != nil || cmd != CmdIdle {
		t.Fatalf("fresh descriptor command = %d, %v; want idle", cmd, err)
	}
	if err := WriteCommand(s, 0x1000, CmdStart); err != nil {
		t.Fatal(err)
	}
	cmd, err = CommandOf(slot, 0x1000)
	if err != nil || cmd != CmdStart {
		t.Fatalf("command = %d, %v; want start", cmd, err)
	}
}

func TestCommandRequiresMagic(t *testing.T) {
	s := space(t)
	if err := WriteCommand(s, 0x1000, CmdStart); err == nil {
		t.Error("WriteCommand on garbage must fail")
	}
	slot, err := s.ViewBytes(0x1000, SlotBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CommandOf(slot, 0x1000); err == nil {
		t.Error("CommandOf on garbage must fail")
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
	// A loop-free descriptor is its control region and what its passes add.
	two := simpleDescriptor(t)
	if err := two.AddComp(OpDOT, Params{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	two.AddEndPass()
	scopes, err := two.Scopes()
	if err != nil || len(scopes) != 1 {
		t.Fatalf("scopes %v, %v", scopes, err)
	}
	if got := CRSize + PassesSize(scopes[0].Passes); got != two.Size() {
		t.Errorf("CRSize + PassesSize = %v, Size = %v", got, two.Size())
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

// corpus is the descriptors the layout tests run over: hand-built shapes, and
// everything FuzzDecode's seeds (the f.Add values and testdata/fuzz) decode to
// when they mutate its image.
func corpus(t *testing.T) []*Descriptor {
	t.Helper()
	nested := simpleDescriptor(t)
	if err := nested.AddLoop(3, 5); err != nil {
		t.Fatal(err)
	}
	if err := nested.AddComp(OpDOT, Params{32, 1, AddrField(0x30000), AddrField(0x40000), AddrField(0x50000)}); err != nil {
		t.Fatal(err)
	}
	if err := nested.AddComp(OpFFT, Params{}); err != nil {
		t.Fatal(err)
	}
	nested.AddEndPass()
	nested.AddEndLoop()
	if err := nested.AddComp(OpRESHP, Params{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	nested.AddEndPass()
	empty := &Descriptor{}
	if err := empty.AddLoop(1<<32-1, 2, 1, 7); err != nil {
		t.Fatal(err)
	}
	empty.AddEndLoop()
	out := []*Descriptor{simpleDescriptor(t), nested, empty}
	seed := &Descriptor{}
	if err := seed.AddLoop(3); err != nil {
		t.Fatal(err)
	}
	if err := seed.AddComp(OpAXPY, Params{64, F32Field(2), AddrField(0x2000), AddrField(0x3000), 1, 1}); err != nil {
		t.Fatal(err)
	}
	seed.AddEndPass()
	seed.AddEndLoop()
	for _, m := range []struct {
		off uint32
		val uint64
	}{{0, 0}, {headerOffNInstr, 1 << 40}, {headerOffPRBase, 8}, {headerOffTotal, 3}, {crSize, 0xff},
		{crSize + 4, 0xffffffff}, {crSize + 8, 1 << 33}, {163, 4294967392}, {crSize + 4, 6}, {crSize + 20, 9}} {
		s := space(t)
		if err := seed.Encode(s, 0x1000); err != nil {
			t.Fatal(err)
		}
		b, err := s.ViewBytes(0x1000+phys.Addr(m.off%uint32(seed.Size()-8)), 8)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)^m.val)
		if d, err := Decode(s, 0x1000); err == nil {
			out = append(out, d)
		}
	}
	if len(out) < 6 {
		t.Fatalf("only %d descriptors in the corpus: the mutated images no longer decode", len(out))
	}
	return out
}

// TestEncodeIsImageAtBase: Encode is the image put at a base. Over the corpus
// and several bases, one of them a slot made of two mapped regions, the bytes in
// the slot are Image's with the address words advanced by the base, and they
// decode to the descriptor. The golden string pins the layout itself, as the
// word-by-word writer this encoder replaced produced it.
//
// Gate (check.sh): the one-walk install.
func TestEncodeIsImageAtBase(t *testing.T) {
	s := space(t)
	// Two more regions, meeting where the last base's control region ends: no
	// view covers that slot.
	const split = 0x200000
	for _, at := range []phys.Addr{split - 4096, split} {
		if _, err := s.Map(at, 4096); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.ViewBytes(split-crSize, crSize+instrSize); err == nil {
		t.Fatal("the two regions are viewable as one: the straddling slot tests nothing")
	}
	for i, d := range corpus(t) {
		img, ptrs, err := d.Image()
		if err != nil {
			t.Fatal(err)
		}
		if len(img) != int(d.Size()) || len(ptrs) != 1+d.Comps() {
			t.Fatalf("descriptor %d: image of %d bytes with %d address words; the descriptor is %v with %d comps", i, len(img), len(ptrs), d.Size(), d.Comps())
		}
		for _, base := range []phys.Addr{0x1000, 0x2040, 0x80004, split - crSize} {
			if err := d.Encode(s, base); err != nil {
				t.Fatalf("descriptor %d at %v: %v", i, base, err)
			}
			want := append([]byte(nil), img...)
			for _, off := range ptrs {
				binary.LittleEndian.PutUint64(want[off:], binary.LittleEndian.Uint64(want[off:])+uint64(base))
			}
			var got []byte
			for off := 0; off < len(img); off += 4 {
				w, err := s.ViewBytes(base+phys.Addr(off), 4)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, w...)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("descriptor %d at %v: the slot differs from the relocated image", i, base)
			}
			dec, err := Decode(s, base)
			if err != nil {
				t.Fatalf("descriptor %d at %v: %v", i, base, err)
			}
			if dec.Disassemble() != d.Disassemble() || !reflect.DeepEqual(dec.params, d.params) {
				t.Fatalf("descriptor %d at %v: decoded\n%s%v\nwant\n%s%v", i, base, dec.Disassemble(), dec.params, d.Disassemble(), d.params)
			}
		}
	}

	d := &Descriptor{}
	if err := d.AddLoop(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.AddComp(OpDOT, Params{7, AddrField(0x2000)}); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	if err := d.Encode(s, 0x1000); err != nil {
		t.Fatal(err)
	}
	got, err := s.ViewBytes(0x1000, int(d.Size()))
	if err != nil {
		t.Fatal(err)
	}
	const golden = "4c41454d000000000400000000000000a010000000000000b400000000000000" + // CR: magic, idle, 4 instructions, PR base, total
		"0200000001000000000000000000000001000000020000000300000000000000" + // LOOP 1 x 1 x 2 x 3
		"0002000014000000a0100000000000000000000000000000" + "0000000000000000" + // COMP DOT, 20 parameter bytes at the PR base
		"0100000000000000000000000000000000000000000000000000000000000000" + // ENDPASS
		"0300000000000000000000000000000000000000000000000000000000000000" + // ENDLOOP
		"0200000007000000000000000020000000000000" // PR: 2 fields, 7, 0x2000
	if hex.EncodeToString(got) != golden {
		t.Errorf("the byte layout moved:\n got %x\nwant %s", got, golden)
	}
}

// TestScopes: the one parser of the instruction region yields a run of
// top-level passes or a LOOP per scope, with program-order pass and comp
// indices and the parameter blocks themselves.
//
// Gate (check.sh): the one-walk install.
func TestScopes(t *testing.T) {
	d := &Descriptor{}
	add := func(op OpCode, tag uint64) {
		t.Helper()
		if err := d.AddComp(op, Params{tag}); err != nil {
			t.Fatal(err)
		}
	}
	add(OpAXPY, 0)
	d.AddEndPass()
	add(OpDOT, 1)
	add(OpFFT, 2)
	d.AddEndPass()
	if err := d.AddLoop(4, 2); err != nil {
		t.Fatal(err)
	}
	add(OpRESMP, 3)
	d.AddEndPass()
	add(OpFFT, 4)
	d.AddEndPass()
	d.AddEndLoop()
	d.Instrs = append(d.Instrs, Instruction{Kind: KindLoop}) // empty body, zero counts
	d.AddEndLoop()
	add(OpGEMV, 5)
	d.AddEndPass()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	scopes, err := d.Scopes()
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, sc := range scopes {
		fmt.Fprintf(&got, "loop=%v counts=%v first=%d:", sc.Loop, sc.Counts, sc.FirstPass)
		for _, pass := range sc.Passes {
			got.WriteString(" [")
			for _, c := range pass {
				fmt.Fprintf(&got, "%v#%d/%d ", c.Op, c.Index, c.Params[0])
			}
			got.WriteString("]")
		}
		got.WriteString("\n")
	}
	const want = "loop=false counts=[1 1 1 1] first=0: [AXPY#0/0 ] [DOT#1/1 FFT#2/2 ]\n" +
		"loop=true counts=[1 1 4 2] first=2: [RESMP#3/3 ] [FFT#4/4 ]\n" +
		"loop=true counts=[1 1 1 1] first=4:\n" +
		"loop=false counts=[1 1 1 1] first=4: [GEMV#5/5 ]\n"
	if got.String() != want {
		t.Errorf("Scopes:\n%swant\n%s", got.String(), want)
	}
	// A pass is its own slice: appending to one cannot reach the next.
	first := scopes[0].Passes[0]
	_ = append(first, Comp{Op: OpSPMV})
	if scopes[0].Passes[1][0].Op != OpDOT {
		t.Error("appending to a pass overwrote its neighbour")
	}
	d.params = d.params[:5]
	if _, err := d.Scopes(); err == nil {
		t.Error("Scopes of a descriptor with a COMP and no parameter block: got nil, want an error")
	}
}
