package tdlcheck

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/span"
	"mealib/internal/tdl"
	"mealib/internal/units"
)

// base addresses of disjoint 64 KiB test buffers.
const (
	bufA = phys.Addr(0x1000)
	bufB = phys.Addr(0x11000)
	bufC = phys.Addr(0x21000)
	bufD = phys.Addr(0x31000)
)

func axpy(x, y phys.Addr, n int64) descriptor.Params {
	return accel.AxpyArgs{N: n, Alpha: 2, X: x, Y: y, IncX: 1, IncY: 1}.Params()
}

func fft(src, dst phys.Addr, n int64) descriptor.Params {
	return accel.FFTArgs{N: n, HowMany: 1, Src: src, Dst: dst}.Params()
}

func resmp(src, dst phys.Addr, nIn, nOut int64) descriptor.Params {
	return accel.ResmpArgs{NIn: nIn, NOut: nOut, Kind: 0, Src: src, Dst: dst}.Params()
}

// mustParse parses a TDL source that is known to be syntactically valid.
func mustParse(t *testing.T, src string) *tdl.Program {
	t.Helper()
	prog, err := tdl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

// wantReject verifies the program is rejected with a message containing
// every fragment, and that the error carries a position (a "line N" marker).
func wantReject(t *testing.T, err error, fragments ...string) {
	t.Helper()
	if err == nil {
		t.Fatalf("verification unexpectedly passed (want error mentioning %q)", fragments)
	}
	msg := err.Error()
	for _, f := range fragments {
		if !strings.Contains(msg, f) {
			t.Errorf("error %q does not mention %q", msg, f)
		}
	}
	if !strings.Contains(msg, "line ") && !strings.Contains(msg, "comp ") {
		t.Errorf("error %q carries no position", msg)
	}
}

func TestVerifyAcceptsValidProgram(t *testing.T) {
	prog := mustParse(t, `
PASS { COMP FFT PARAMS "fft" }
LOOP 4 { PASS { COMP AXPY PARAMS "axpy" } }
`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"fft":  fft(bufA, bufB, 1024),
		"axpy": axpy(bufC, bufD, 256),
	})
	if err := Verify(prog, resolve); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestRejectDanglingParamRef(t *testing.T) {
	prog := mustParse(t, `PASS { COMP FFT PARAMS "nosuch" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{})
	err := Verify(prog, resolve)
	wantReject(t, err, "dangling parameter reference", `"nosuch"`, "line 1")
}

func TestRejectZeroTripLoop(t *testing.T) {
	// The parser rejects LOOP 0 at the syntax level; a programmatically
	// built program can still carry one, which is what the verifier guards.
	prog := &tdl.Program{Blocks: []tdl.Block{
		tdl.Loop{Counts: []int{0}, Line: 3, Passes: []tdl.Pass{
			{Comps: []tdl.Comp{{Op: descriptor.OpFFT, ParamRef: "f", Line: 3}}, Line: 3},
		}},
	}}
	err := VerifyProgram(prog)
	wantReject(t, err, "zero-trip loop", "line 3")
}

func TestRejectLoopCountBeyondFieldWidth(t *testing.T) {
	prog := mustParse(t, `LOOP 99999999999 { PASS { COMP FFT PARAMS "f" } }`)
	err := VerifyProgram(prog)
	wantReject(t, err, "exceeds the descriptor's 32-bit count field", "line 1")
}

func TestRejectOverlappingSpans(t *testing.T) {
	// Out-of-place FFT whose destination partially overlaps its source.
	prog := mustParse(t, "PASS { COMP FFT PARAMS \"f\" }\n")
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"f": fft(bufA, bufA+512, 512), // src [A, A+4096), dst [A+512, ...)
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "partially overlap", "line 1")
}

func TestRejectSizeMismatch(t *testing.T) {
	// GEMV whose leading dimension is smaller than the row length: the
	// operand sizes are mutually inconsistent.
	prog := mustParse(t, `PASS { COMP GEMV PARAMS "g" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"g": accel.GemvArgs{M: 8, N: 16, Lda: 4, Alpha: 1, A: bufA, X: bufB, Y: bufC}.Params(),
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "size mismatch", "leading dimension", "line 1")
}

func TestRejectWrongParamFieldCount(t *testing.T) {
	prog := mustParse(t, `PASS { COMP AXPY PARAMS "a" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"a": {1, 2, 3}, // AXPY expects 6 + 2*MaxLoopLevels fields
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "parameter fields", "line 1")
}

func TestRejectNonPowerOfTwoFFT(t *testing.T) {
	prog := mustParse(t, "# sar range compression\nPASS { COMP FFT PARAMS \"f\" }")
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"f": fft(bufA, bufB, 1000),
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "not a power of two", "line 2")
}

func TestRejectUninitializedRead(t *testing.T) {
	// comp 0 resamples out of B, but B is only written by comp 1 (in a
	// later pass): a read of an uninitialized shared buffer.
	prog := mustParse(t, `
PASS { COMP RESMP PARAMS "r" }
PASS { COMP FFT PARAMS "f" }
`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"r": resmp(bufB, bufC, 128, 64),
		"f": fft(bufA, bufB, 128),
	})
	// Host initialized only A.
	err := Verify(prog, resolve, WithInitialized(Span{Addr: bufA, Bytes: 64 * 1024}))
	wantReject(t, err, "uninitialized buffer", "line 2")
	// Same graph with the passes in producer order is clean.
	good := mustParse(t, `
PASS { COMP FFT PARAMS "f" }
PASS { COMP RESMP PARAMS "r" }
`)
	if err := Verify(good, resolve, WithInitialized(Span{Addr: bufA, Bytes: 64 * 1024})); err != nil {
		t.Fatalf("producer-ordered graph rejected: %v", err)
	}
}

func TestRejectChainedPassCycle(t *testing.T) {
	// Within one chained pass, comp 1 writes the buffer comp 0 reads: the
	// datapath has a write-after-read cycle and cannot be scheduled.
	prog := mustParse(t, `PASS { COMP AXPY PARAMS "p" COMP AXPY PARAMS "q" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"p": axpy(bufA, bufB, 64), // reads A, writes B
		"q": axpy(bufC, bufA, 64), // writes A -> back edge to comp 0
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "cycle in the task graph", "line 1")
}

func TestRejectMisalignedOperand(t *testing.T) {
	prog := mustParse(t, `PASS { COMP FFT PARAMS "f" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"f": fft(bufA+2, bufB, 64), // complex64 data needs 8-byte alignment
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "aligned", "line 1")
}

func TestRejectInPlaceNonSquareReshape(t *testing.T) {
	prog := mustParse(t, `PASS { COMP RESHP PARAMS "t" }`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"t": accel.ReshpArgs{Rows: 8, Cols: 16, Elem: accel.ElemF32, Src: bufA, Dst: bufA}.Params(),
	})
	err := Verify(prog, resolve)
	wantReject(t, err, "square", "line 1")
}

func TestVerifyDescriptorLevel(t *testing.T) {
	d := &descriptor.Descriptor{}
	if err := d.AddComp(descriptor.OpFFT, fft(bufA, bufB, 1000)); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	err := VerifyDescriptor(d)
	wantReject(t, err, "not a power of two", "comp 0")

	good := &descriptor.Descriptor{}
	if err := good.AddComp(descriptor.OpFFT, fft(bufA, bufB, 1024)); err != nil {
		t.Fatal(err)
	}
	good.AddEndPass()
	if err := VerifyDescriptor(good); err != nil {
		t.Fatalf("valid descriptor rejected: %v", err)
	}
	if err := VerifyDescriptor(nil); err == nil {
		t.Fatal("nil descriptor accepted")
	}
}

func TestErrorListCollectsMultiple(t *testing.T) {
	prog := mustParse(t, `
PASS { COMP FFT PARAMS "bad1" }
PASS { COMP GEMV PARAMS "bad2" }
`)
	resolve := tdl.MapResolver(map[string]descriptor.Params{
		"bad1": fft(bufA, bufB, 1000),
		"bad2": accel.GemvArgs{M: 8, N: 16, Lda: 4, Alpha: 1, A: bufA, X: bufB, Y: bufC}.Params(),
	})
	err := Verify(prog, resolve)
	list, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("want ErrorList, got %T: %v", err, err)
	}
	if len(list) != 2 {
		t.Fatalf("want 2 errors, got %d: %v", len(list), list)
	}
	if list[0].Line != 2 || list[1].Line != 3 {
		t.Errorf("positions = %d,%d; want 2,3", list[0].Line, list[1].Line)
	}
}

func TestWritesExtendOverLoops(t *testing.T) {
	// An FFT batched over a 4-iteration loop with a per-iteration stride
	// initializes the whole strided extent.
	d := &descriptor.Descriptor{}
	if err := d.AddLoop(4); err != nil {
		t.Fatal(err)
	}
	args := accel.FFTArgs{N: 64, HowMany: 1, Src: bufA, Dst: bufB,
		LoopStrideSrc: accel.Lin(512), LoopStrideDst: accel.Lin(512)}
	if err := d.AddComp(descriptor.OpFFT, args.Params()); err != nil {
		t.Fatal(err)
	}
	d.AddEndPass()
	d.AddEndLoop()
	spans, err := Writes(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 {
		t.Fatalf("want 1 write span, got %d", len(spans))
	}
	// base 64*8 = 512 bytes, extended by 3 more strides of 512.
	if spans[0].Addr != bufB || spans[0].Bytes != 4*512 {
		t.Errorf("write span = %v, want [%v,+2048)", spans[0], bufB)
	}
}

func TestVerifyProgramEmptyAndNil(t *testing.T) {
	if err := VerifyProgram(nil); err == nil {
		t.Error("nil program accepted")
	}
	if err := VerifyProgram(&tdl.Program{}); err == nil {
		t.Error("empty program accepted")
	}
}

// TestGemvBetaZeroNeverReadsY pins the one access direction of GEMV y the
// verifier shares with the scheduler: with beta == 0 the old contents of y
// are never consumed, so a never-written y verifies and is reported as a
// write only; with beta != 0 the same descriptor reads an uninitialized
// buffer.
func TestGemvBetaZeroNeverReadsY(t *testing.T) {
	build := func(beta float32) *descriptor.Descriptor {
		d := &descriptor.Descriptor{}
		if err := d.AddComp(descriptor.OpGEMV, accel.GemvArgs{
			M: 16, N: 8, Alpha: 1, Beta: beta, A: bufA, Lda: 8, X: bufB, Y: bufC,
		}.Params()); err != nil {
			t.Fatal(err)
		}
		d.AddEndPass()
		return d
	}
	inputs := WithInitialized(Span{Addr: bufA, Bytes: 4 * 16 * 8}, Span{Addr: bufB, Bytes: 4 * 8})
	y := Span{Addr: bufC, Bytes: 4 * 16}

	if err := VerifyDescriptor(build(0), inputs); err != nil {
		t.Errorf("beta=0 GEMV over a never-written y must verify: %v", err)
	}
	wantReject(t, VerifyDescriptor(build(1), inputs), "GEMV reads y", "uninitialized buffer")

	for beta, readsY := range map[float32]bool{0: false, 1: true} {
		reads, err := Reads(build(beta))
		if err != nil {
			t.Fatal(err)
		}
		got := false
		for _, s := range reads {
			got = got || s == y
		}
		if got != readsY {
			t.Errorf("beta=%v: Reads lists y = %v, want %v (%v)", beta, got, readsY, reads)
		}
		if writes, err := Writes(build(beta)); err != nil || len(writes) != 1 || writes[0] != y {
			t.Errorf("beta=%v: Writes = %v, %v; want exactly y", beta, writes, err)
		}
	}
}

// randomTaskGraph builds a descriptor of one to four passes of AXPY, FFT, DOT
// and RESMP over the four test buffers, some passes chained, some in a LOOP
// with strided operands. Many are invalid (partial overlaps, chained cycles):
// the property below covers both verdicts.
func randomTaskGraph(rng *rand.Rand) *descriptor.Descriptor {
	bufs := []phys.Addr{bufA, bufB, bufC, bufD}
	pick := func() phys.Addr { return bufs[rng.Intn(len(bufs))] + phys.Addr(4*rng.Intn(3)*256) }
	comp := func(d *descriptor.Descriptor, stride int64) {
		var err error
		switch rng.Intn(4) {
		case 0:
			err = d.AddComp(descriptor.OpAXPY, accel.AxpyArgs{N: 256, Alpha: 2, X: pick(), Y: pick(), IncX: 1, IncY: 1,
				LoopStrideX: accel.Lin(stride), LoopStrideY: accel.Lin(stride)}.Params())
		case 1:
			err = d.AddComp(descriptor.OpFFT, fft(pick(), pick(), 256))
		case 2:
			err = d.AddComp(descriptor.OpDOT, accel.DotArgs{N: 256, X: pick(), Y: pick(), Out: pick(), IncX: 1, IncY: 1,
				LoopStrideOut: accel.Lin(stride / 256)}.Params())
		default:
			err = d.AddComp(descriptor.OpRESMP, resmp(pick(), pick(), 128, 256))
		}
		if err != nil {
			panic(err)
		}
	}
	d := &descriptor.Descriptor{}
	for passes := 1 + rng.Intn(4); passes > 0; passes-- {
		var stride int64
		loop := rng.Intn(3) == 0
		if loop {
			if err := d.AddLoop(uint32(2 + rng.Intn(3))); err != nil {
				panic(err)
			}
			stride = 1024 * int64(rng.Intn(3))
		}
		for comps := 1 + rng.Intn(2); comps > 0; comps-- {
			comp(d, stride)
		}
		d.AddEndPass()
		if loop {
			d.AddEndLoop()
		}
	}
	return d
}

// TestExposedReadsIsTheReadBeforeWriteCheck: the launch-time question is
// exactly "does every exposed read overlap initialized data". Over the fuzz
// corpus and seeded random task graphs, against random initialized sets, the
// full verifier with the set accepts iff the verifier without it accepts and
// every ExposedReads span overlaps the set.
//
// Gate (check.sh): the compiled plan.
func TestExposedReadsIsTheReadBeforeWriteCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var corpus []*descriptor.Descriptor
	for _, s := range fuzzSeeds {
		if d := s.descriptor(); d != nil {
			corpus = append(corpus, d)
		}
	}
	for i := 0; i < 400; i++ {
		corpus = append(corpus, randomTaskGraph(rng))
	}
	accepted, rejectedByInit := 0, 0
	for di, d := range corpus {
		static := VerifyDescriptor(d)
		exposed := ExposedReads(d)
		for trial := 0; trial < 16; trial++ {
			var init []Span
			var set span.Set
			for n := rng.Intn(5); n > 0; n-- {
				s := Span{Addr: phys.Addr(rng.Intn(0x48000)), Bytes: units.Bytes(rng.Intn(0x12000))}
				if trial == 0 {
					// Once per descriptor, whole buffers: most valid graphs launch.
					s = Span{Addr: bufA + phys.Addr(rng.Intn(4))*0x10000, Bytes: 0x10000}
				}
				init = append(init, s)
				set.Add(s)
			}
			covered := true
			for _, r := range exposed {
				covered = covered && set.Overlaps(r)
			}
			full := VerifyDescriptor(d, WithInitialized(init...))
			if (full == nil) != (static == nil && covered) {
				t.Fatalf("descriptor %d, initialized %v:\nVerifyDescriptor with the set: %v\nwithout it: %v; exposed reads %v, all overlapping the set: %v\n%s",
					di, init, full, static, exposed, covered, d.Disassemble())
			}
			if full == nil {
				accepted++
			} else if static == nil {
				rejectedByInit++
			}
		}
	}
	if accepted < 100 || rejectedByInit < 100 {
		t.Fatalf("the corpus is one-sided: %d launches accepted, %d rejected for an uninitialized read", accepted, rejectedByInit)
	}
}

// TestCheckIsTheOneWalk: Check's verdict is VerifyDescriptor's and its
// footprint is what Writes, Reads and ExposedReads return, over the fuzz corpus
// and seeded random task graphs; and on every accepted descriptor the writes
// and reads are the whole-loop extents of the bound operands, in program order,
// as an independent pass over the scopes derives them.
//
// Gate (check.sh): the one-walk install.
func TestCheckIsTheOneWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var corpus []*descriptor.Descriptor
	for _, s := range fuzzSeeds {
		if d := s.descriptor(); d != nil {
			corpus = append(corpus, d)
		}
	}
	for i := 0; i < 200; i++ {
		corpus = append(corpus, randomTaskGraph(rng))
	}
	text := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	accepted := 0
	for di, d := range corpus {
		fp, err := Check(d)
		if want := VerifyDescriptor(d); text(err) != text(want) {
			t.Fatalf("descriptor %d: Check says %v, VerifyDescriptor %v", di, err, want)
		}
		writes, werr := Writes(d)
		reads, rerr := Reads(d)
		if werr != nil || rerr != nil || !slices.Equal(fp.Writes, writes) || !slices.Equal(fp.Reads, reads) || !slices.Equal(fp.Exposed, ExposedReads(d)) {
			t.Fatalf("descriptor %d: Check's footprint %+v; the views return %v (%v), %v (%v), %v", di, fp, writes, werr, reads, rerr, ExposedReads(d))
		}
		if err != nil {
			continue
		}
		accepted++
		scopes, err := d.Scopes()
		if err != nil {
			t.Fatal(err)
		}
		var wantW, wantR []Span
		for _, sc := range scopes {
			for _, pass := range sc.Passes {
				for _, c := range pass {
					a, err := accel.Bind(c.Op, c.Params)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < a.NumOperands(); i++ {
						o := a.Operand(i)
						s := span.Strided{Dir: span.Dir{Span: Span{Addr: o.Addr, Bytes: o.Bytes()}}, Strides: o.Strides}
						ext, ok := s.Extent(sc.Counts)
						if !ok {
							t.Fatalf("descriptor %d: an accepted operand's extent %v does not fit", di, ext)
						}
						if o.Read {
							wantR = append(wantR, ext)
						}
						if o.Write {
							wantW = append(wantW, ext)
						}
					}
				}
			}
		}
		if !slices.Equal(fp.Writes, wantW) || !slices.Equal(fp.Reads, wantR) {
			t.Fatalf("descriptor %d: footprint writes %v reads %v, want %v and %v\n%s", di, fp.Writes, fp.Reads, wantW, wantR, d.Disassemble())
		}
	}
	if accepted < 20 {
		t.Fatalf("only %d descriptors of the corpus verify: the footprint oracle tested nothing", accepted)
	}
	if fp, err := Check(nil); err == nil || err.Error() != "tdlcheck: nil descriptor" || fp.Writes != nil {
		t.Errorf("Check(nil) = %+v, %v", fp, err)
	}
	if _, err := Writes(nil); err == nil || err.Error() != "tdlcheck: nil descriptor" {
		t.Errorf("Writes(nil): %v", err)
	}
}
