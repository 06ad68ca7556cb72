// Package descriptor defines the accelerator descriptor — the
// hardware/software interface of MEALib (paper §2.3). A descriptor is a
// physically contiguous region in the DRAM command space holding three
// sub-regions:
//
//   - the Control Region (CR): the control command (START) and the number
//     of instructions;
//   - the Instruction Region (IR): accelerator instructions (one per
//     accelerator invocation: opcode, parameter size, parameter address)
//     and control instructions (LOOP / end-of-pass markers);
//   - the Parameter Region (PR): the per-invocation parameters derived from
//     the library API arguments.
//
// The host runtime builds a Descriptor, encodes it into the command space,
// and writes CmdStart into the CR; the configuration unit of the
// accelerator layer (internal/accel) fetches, decodes and executes it.
package descriptor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"mealib/internal/phys"
	"mealib/internal/units"
)

// OpCode identifies an accelerator (paper Table 1).
type OpCode uint8

// Accelerator opcodes.
const (
	OpInvalid OpCode = iota
	OpAXPY           // vector scaling and add     (cblas_saxpy)
	OpDOT            // dot product                (cblas_sdot / cblas_cdotc_sub)
	OpGEMV           // general matrix-vector mul  (cblas_sgemv)
	OpSPMV           // sparse matrix-vector mul   (mkl_scsrgemv)
	OpRESMP          // data resampling            (dfsInterpolate1D)
	OpFFT            // fast Fourier transform     (fftwf_execute)
	OpRESHP          // matrix transpose/reshape   (mkl_simatcopy / FFTW guru copy)
	opMax
)

var opNames = [...]string{"INVALID", "AXPY", "DOT", "GEMV", "SPMV", "RESMP", "FFT", "RESHP"}

// String returns the accelerator mnemonic.
func (o OpCode) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("OpCode(%d)", uint8(o))
}

// Valid reports whether o names a real accelerator.
func (o OpCode) Valid() bool { return o > OpInvalid && o < opMax }

// InstrKind distinguishes accelerator from control instructions.
type InstrKind uint8

// Instruction kinds.
const (
	KindComp    InstrKind = iota // invoke one accelerator
	KindEndPass                  // end of a PASS datapath
	KindLoop                     // repeat enclosed passes Count times
	KindEndLoop                  // end of a LOOP body
)

// MaxLoopLevels is the depth of the hardware loop nest one LOOP
// instruction can express. The source-to-source compiler flattens OpenMP
// loop nests (up to this depth) into a single LOOP block; each accelerator
// parameter block carries a stride per level (paper §3.4: the compiler
// derives iteration counts and input/output strides from the loop bounds).
const MaxLoopLevels = 4

// LoopCounts holds the per-level iteration counts of a LOOP instruction,
// outermost first. Unused levels are 1 (or 0, normalised to 1).
type LoopCounts [MaxLoopLevels]uint32

// Total returns the flattened iteration count, saturated at the largest
// int64 when four 32-bit levels multiply past it (Validate rejects such a
// LOOP, so no executor ever iterates a saturated count).
func (c LoopCounts) Total() int64 {
	total, _ := c.total()
	return total
}

func (c LoopCounts) total() (total int64, ok bool) {
	total = 1
	for _, v := range c {
		if v > 1 {
			if total > math.MaxInt64/int64(v) {
				return math.MaxInt64, false
			}
			total *= int64(v)
		}
	}
	return total, true
}

// normalised replaces zero levels with 1.
func (c LoopCounts) normalised() LoopCounts {
	for i, v := range c {
		if v == 0 {
			c[i] = 1
		}
	}
	return c
}

// Instruction is one IR entry.
type Instruction struct {
	Kind InstrKind
	Op   OpCode // KindComp only
	// Counts are the per-level iteration counts for KindLoop.
	Counts LoopCounts
}

// Params is the parameter block of one accelerator invocation: an ordered
// list of 64-bit fields whose meaning the target accelerator defines.
// Floats are bit-cast with F32Field/F32Of.
type Params []uint64

// F32Field packs a float32 into a parameter field.
func F32Field(v float32) uint64 { return uint64(math.Float32bits(v)) }

// F32Of unpacks a float32 parameter field.
func F32Of(f uint64) float32 { return math.Float32frombits(uint32(f)) }

// AddrField packs a physical address into a parameter field.
func AddrField(a phys.Addr) uint64 { return uint64(a) }

// AddrOf unpacks a physical address parameter field.
func AddrOf(f uint64) phys.Addr { return phys.Addr(f) }

// Control commands stored in the CR.
const (
	CmdIdle  uint32 = 0
	CmdStart uint32 = 1
	CmdDone  uint32 = 2
)

// Binary layout constants.
const (
	magic            = 0x4d45414c // "MEAL"
	crSize           = 32
	instrSize        = 32
	headerOffCommand = 4
	headerOffNInstr  = 8
	headerOffPRBase  = 16
	headerOffTotal   = 24
)

// Descriptor is the builder-side representation.
type Descriptor struct {
	Instrs []Instruction
	// params[i] belongs to the i-th KindComp instruction, in order.
	params []Params
}

// AddComp appends an accelerator invocation with its parameters.
func (d *Descriptor) AddComp(op OpCode, p Params) error {
	if !op.Valid() {
		return fmt.Errorf("descriptor: invalid opcode %v", op)
	}
	d.Instrs = append(d.Instrs, Instruction{Kind: KindComp, Op: op})
	d.params = append(d.params, p)
	return nil
}

// AddEndPass appends an end-of-pass marker.
func (d *Descriptor) AddEndPass() {
	d.Instrs = append(d.Instrs, Instruction{Kind: KindEndPass})
}

// AddLoop appends a LOOP header repeating the enclosed passes over a
// hardware loop nest, outermost count first. AddLoop(n) is a single-level
// loop of n iterations.
func (d *Descriptor) AddLoop(counts ...uint32) error {
	if len(counts) == 0 || len(counts) > MaxLoopLevels {
		return fmt.Errorf("descriptor: loop needs 1..%d levels, got %d", MaxLoopLevels, len(counts))
	}
	var lc LoopCounts
	for i := range lc {
		lc[i] = 1
	}
	// Right-align so level MaxLoopLevels-1 is always the innermost.
	off := MaxLoopLevels - len(counts)
	for i, c := range counts {
		if c == 0 {
			return fmt.Errorf("descriptor: zero-iteration loop level %d", i)
		}
		lc[off+i] = c
	}
	d.Instrs = append(d.Instrs, Instruction{Kind: KindLoop, Counts: lc})
	return nil
}

// AddEndLoop appends a LOOP terminator.
func (d *Descriptor) AddEndLoop() {
	d.Instrs = append(d.Instrs, Instruction{Kind: KindEndLoop})
}

// Comps returns the number of accelerator instructions.
func (d *Descriptor) Comps() int { return len(d.params) }

// Validate checks structural well-formedness: loops balanced and non-nested,
// every COMP inside a pass that is eventually terminated.
func (d *Descriptor) Validate() error {
	if len(d.Instrs) == 0 {
		return fmt.Errorf("descriptor: empty instruction region")
	}
	inLoop := false
	open := false // an unterminated pass is in progress
	comps := 0
	for i, in := range d.Instrs {
		switch in.Kind {
		case KindComp:
			if !in.Op.Valid() {
				return fmt.Errorf("descriptor: instruction %d: invalid opcode", i)
			}
			open = true
			comps++
		case KindEndPass:
			if !open {
				return fmt.Errorf("descriptor: instruction %d: ENDPASS without COMP", i)
			}
			open = false
		case KindLoop:
			if inLoop {
				return fmt.Errorf("descriptor: instruction %d: nested LOOP", i)
			}
			if open {
				return fmt.Errorf("descriptor: instruction %d: LOOP inside an open pass", i)
			}
			if _, ok := in.Counts.total(); !ok {
				return fmt.Errorf("descriptor: instruction %d: LOOP trip count %v overflows", i, in.Counts)
			}
			inLoop = true
		case KindEndLoop:
			if !inLoop {
				return fmt.Errorf("descriptor: instruction %d: ENDLOOP without LOOP", i)
			}
			if open {
				return fmt.Errorf("descriptor: instruction %d: ENDLOOP inside an open pass", i)
			}
			inLoop = false
		default:
			return fmt.Errorf("descriptor: instruction %d: unknown kind %d", i, in.Kind)
		}
	}
	if open {
		return fmt.Errorf("descriptor: trailing pass not terminated by ENDPASS")
	}
	if inLoop {
		return fmt.Errorf("descriptor: unterminated LOOP")
	}
	if comps != len(d.params) {
		return fmt.Errorf("descriptor: %d COMP instructions but %d parameter blocks", comps, len(d.params))
	}
	return nil
}

// Comp is one accelerator invocation of a scope: its opcode, its parameter
// block and its index among the descriptor's COMPs, in program order.
type Comp struct {
	Op     OpCode
	Params Params
	Index  int
}

// Scope is one scope of the instruction region: a run of consecutive top-level
// passes, or one LOOP with its body passes.
type Scope struct {
	Loop bool
	// Counts is the LOOP's iteration counts, zero levels normalised to 1
	// (all ones outside a LOOP).
	Counts LoopCounts
	// FirstPass is the program-order index of Passes[0], counting every pass,
	// top-level and loop-body alike.
	FirstPass int
	Passes    [][]Comp
}

// Scopes parses the instruction region: the one walk over Instrs everything
// that needs the pass and LOOP structure reads it through. Validate is the
// structural gate in front of it; the only thing Scopes itself refuses is a
// COMP without a parameter block.
func (d *Descriptor) Scopes() ([]Scope, error) {
	npass := 0
	for _, in := range d.Instrs {
		if in.Kind == KindEndPass {
			npass++
		}
	}
	// One slab of comps and one of passes, sized up front: the scopes slice them.
	comps := make([]Comp, 0, len(d.params))
	passes := make([][]Comp, 0, npass)
	var scopes []Scope
	cur := -1  // scopes[cur] takes the next pass; -1 when it opens a top-level run
	first := 0 // where the pass in progress starts in comps
	for _, in := range d.Instrs {
		switch in.Kind {
		case KindComp:
			if len(comps) == len(d.params) {
				return nil, fmt.Errorf("descriptor: no parameter block %d (have %d)", len(comps), len(d.params))
			}
			comps = append(comps, Comp{Op: in.Op, Params: d.params[len(comps)], Index: len(comps)})
		case KindEndPass:
			if cur < 0 {
				cur = len(scopes)
				scopes = append(scopes, Scope{Counts: LoopCounts{}.normalised(), FirstPass: len(passes)})
			}
			passes = append(passes, comps[first:len(comps):len(comps)])
			first = len(comps)
			sc := &scopes[cur]
			sc.Passes = passes[sc.FirstPass:len(passes):len(passes)]
		case KindLoop:
			cur = len(scopes)
			scopes = append(scopes, Scope{Loop: true, Counts: in.Counts.normalised(), FirstPass: len(passes)})
		case KindEndLoop:
			cur = -1
		}
	}
	return scopes, nil
}

// CRSize is the control region's size, the Size of an empty descriptor.
const CRSize units.Bytes = crSize

// Size returns the total encoded size (CR + IR + PR).
func (d *Descriptor) Size() units.Bytes {
	n := CRSize + instrSize*units.Bytes(len(d.Instrs))
	for _, p := range d.params {
		n += paramSize(p)
	}
	return n
}

// PassesSize is what passes outside a LOOP add to a descriptor's Size: an IR
// entry per COMP and per ENDPASS, and each COMP's parameter block.
func PassesSize(passes [][]Comp) units.Bytes {
	var n units.Bytes
	for _, pass := range passes {
		n += instrSize * units.Bytes(len(pass)+1)
		for _, c := range pass {
			n += paramSize(c.Params)
		}
	}
	return n
}

// paramSize is a parameter block's size in the PR: field count and fields.
func paramSize(p Params) units.Bytes { return units.Bytes(4 + 8*len(p)) }

// Encode serialises the descriptor into the space at base: the image, put at
// base. The CR command is written as CmdIdle; the runtime flips it to CmdStart
// to launch.
func (d *Descriptor) Encode(s *phys.Space, base phys.Addr) error {
	if err := d.Validate(); err != nil {
		return err
	}
	img, ptrs, err := d.Image()
	if err != nil {
		return err
	}
	return InstallImage(s, base, img, ptrs)
}

// Clone returns a deep copy: no later change to d, its instructions or the
// parameter blocks it was built from reaches the copy.
func (d *Descriptor) Clone() *Descriptor {
	c := &Descriptor{Instrs: slices.Clone(d.Instrs), params: make([]Params, len(d.params))}
	n := 0
	for _, p := range d.params {
		n += len(p)
	}
	// One slab for every block, each capped at its length: appending to one
	// cannot run into the next.
	slab := make([]uint64, 0, n)
	for i, p := range d.params {
		at := len(slab)
		slab = append(slab, p...)
		c.params[i] = slab[at:len(slab):len(slab)]
	}
	return c
}

// Image lays the descriptor out in bytes as it stands at base 0 (command
// CmdIdle), and returns with it the offsets of its 64-bit words that hold
// absolute addresses: the PR base in the control region and every COMP's
// parameter pointer. At any other base the same bytes stand with those words
// advanced by the base (InstallImage), so one image serves every command slot.
// The first eight bytes are the magic and the command word, CommandOf's and
// SetCommand's. This is the one place the byte layout is written;
// DecodeImage is the one place it is read. The descriptor must be valid.
func (d *Descriptor) Image() (img []byte, ptrs []int, err error) {
	le := binary.LittleEndian
	prBase := crSize + instrSize*len(d.Instrs)
	img = make([]byte, d.Size())
	ptrs = append(make([]int, 0, 1+len(d.params)), headerOffPRBase)
	// Control region.
	le.PutUint32(img, magic)
	le.PutUint32(img[headerOffCommand:], CmdIdle)
	le.PutUint32(img[headerOffNInstr:], uint32(len(d.Instrs)))
	le.PutUint64(img[headerOffPRBase:], uint64(prBase))
	le.PutUint64(img[headerOffTotal:], uint64(len(img)))
	// Instruction region, each COMP's parameter block going to the parameter
	// region as its entry is written.
	pa, comp := prBase, 0
	for i, in := range d.Instrs {
		at := img[crSize+instrSize*i:]
		le.PutUint32(at, uint32(in.Kind)|uint32(in.Op)<<8)
		switch in.Kind {
		case KindComp:
			if comp >= len(d.params) {
				return nil, nil, fmt.Errorf("descriptor: no parameter block %d (have %d)", comp, len(d.params))
			}
			p := d.params[comp]
			comp++
			size := int(paramSize(p))
			le.PutUint32(at[4:], uint32(size))
			le.PutUint64(at[8:], uint64(pa))
			ptrs = append(ptrs, crSize+instrSize*i+8)
			le.PutUint32(img[pa:], uint32(len(p)))
			for j, f := range p {
				le.PutUint64(img[pa+4+8*j:], f)
			}
			pa += size
		case KindLoop:
			// Level 0 is the entry's count; levels 1..3 live in its reserved tail.
			for l, c := range in.Counts.normalised() {
				le.PutUint32(at[loopLevelOff[l]:], c)
			}
		}
	}
	return img, ptrs, nil
}

// loopLevelOff is where a LOOP entry keeps each level's count.
var loopLevelOff = [MaxLoopLevels]int{4, 16, 20, 24}

// InstallImage puts an image (Image) at base: its bytes, with the address words
// at ptrs advanced by base. A slot that is not one mapped region takes the
// relocated bytes a 32-bit word at a time.
func InstallImage(s *phys.Space, base phys.Addr, img []byte, ptrs []int) error {
	le := binary.LittleEndian
	slot, err := s.ViewBytes(base, len(img))
	straddles := err != nil
	if straddles {
		slot = make([]byte, len(img))
	}
	copy(slot, img)
	for _, off := range ptrs {
		le.PutUint64(slot[off:], le.Uint64(slot[off:])+uint64(base))
	}
	if !straddles {
		return nil
	}
	for off := 0; off < len(slot); off += 4 {
		if err := s.WriteUint32(base+phys.Addr(off), le.Uint32(slot[off:])); err != nil {
			return err
		}
	}
	return nil
}

// SlotBytes is how much of a command slot SetCommand and CommandOf read: the
// magic and the CR command. They lie in one mapped region.
const SlotBytes = headerOffCommand + 4

// WriteCommand sets the CR command field of an encoded descriptor.
func WriteCommand(s *phys.Space, base phys.Addr, cmd uint32) error {
	slot, err := s.ViewBytes(base, SlotBytes)
	if err != nil {
		return err
	}
	return SetCommand(slot, base, cmd)
}

// SetCommand is WriteCommand through a view of the slot at base (at least
// SlotBytes long) that its holder resolved once.
func SetCommand(slot []byte, base phys.Addr, cmd uint32) error {
	if err := checkMagic(binary.LittleEndian.Uint32(slot), base); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(slot[headerOffCommand:], cmd)
	return nil
}

// CommandOf reads the CR command field through a view of the slot at base
// (at least SlotBytes long).
func CommandOf(slot []byte, base phys.Addr) (uint32, error) {
	if err := checkMagic(binary.LittleEndian.Uint32(slot), base); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(slot[headerOffCommand:]), nil
}

// checkMagic refuses a slot whose first word is not the descriptor magic.
func checkMagic(m uint32, base phys.Addr) error {
	if m != magic {
		return fmt.Errorf("descriptor: no descriptor at %v (bad magic %#x)", base, m)
	}
	return nil
}

// Decode reads the descriptor encoded at base, the fetch unit's side of the
// interface: the header's total, then that many bytes from the space in one
// take (gathered across a region seam if the slot straddles one), through
// DecodeImage.
func Decode(s *phys.Space, base phys.Addr) (*Descriptor, error) {
	total, err := s.ReadUint64(base + headerOffTotal)
	if err != nil {
		return nil, err
	}
	if total > uint64(s.Size()) {
		return nil, fmt.Errorf("descriptor: total size %d exceeds the physical space (%v)", total, s.Size())
	}
	img, err := s.ReadBytes(base, int(total))
	if err != nil {
		return nil, err
	}
	return DecodeImage(img, base)
}

// DecodeImage reads a descriptor from its image as it stands at base (Image's
// bytes are the image at base 0): the one reader of the byte layout, behind
// Decode and the mealibd wire. Region sizes, the PR base and every parameter
// pointer must agree with the bytes present before anything derived from
// them is read or allocated. A LOOP level of zero is refused, and the result
// must pass Validate. Nothing returned aliases img.
func DecodeImage(img []byte, base phys.Addr) (*Descriptor, error) {
	le := binary.LittleEndian
	if len(img) < crSize {
		return nil, fmt.Errorf("descriptor: image of %d bytes does not cover the %d-byte control region", len(img), crSize)
	}
	if err := checkMagic(le.Uint32(img), base); err != nil {
		return nil, err
	}
	nInstr := uint64(le.Uint32(img[headerOffNInstr:]))
	total := le.Uint64(img[headerOffTotal:])
	if total != uint64(len(img)) {
		return nil, fmt.Errorf("descriptor: total size %d disagrees with the %d bytes of the image", total, len(img))
	}
	if total > ^uint64(0)-uint64(base) {
		return nil, fmt.Errorf("descriptor: total size %d wraps the address space at %v", total, base)
	}
	if nInstr*instrSize > total-crSize {
		return nil, fmt.Errorf("descriptor: truncated instruction region: %d instructions need %d bytes, %d remain after the control region", nInstr, nInstr*instrSize, total-crSize)
	}
	prStart, end := uint64(base)+crSize+nInstr*instrSize, uint64(base)+total
	if pr := le.Uint64(img[headerOffPRBase:]); pr != prStart {
		return nil, fmt.Errorf("descriptor: PR base %#x inconsistent with %d instructions (want %#x)", pr, nInstr, prStart)
	}
	d := &Descriptor{Instrs: make([]Instruction, nInstr)}
	for i := range d.Instrs {
		at := img[crSize+instrSize*i:]
		in := Instruction{Kind: InstrKind(at[0]), Op: OpCode(at[1])}
		switch in.Kind {
		case KindComp:
			size, pa := uint64(le.Uint32(at[4:])), le.Uint64(at[8:])
			if size < 4 || pa < prStart || pa > end || size > end-pa {
				return nil, fmt.Errorf("descriptor: instruction %d: parameter block %#x+%d outside the parameter region [%#x,%#x)", i, pa, size, prStart, end)
			}
			block := img[pa-uint64(base):][:size]
			// In 64 bits: a huge field count must not wrap onto the size.
			if nFields := uint64(le.Uint32(block)); 4+8*nFields != size {
				return nil, fmt.Errorf("descriptor: instruction %d: parameter size %d inconsistent with field count %d", i, size, nFields)
			}
			p := make(Params, (size-4)/8)
			for j := range p {
				p[j] = le.Uint64(block[4+8*j:])
			}
			d.params = append(d.params, p)
		case KindLoop:
			for l, off := range loopLevelOff {
				if in.Counts[l] = le.Uint32(at[off:]); in.Counts[l] == 0 {
					return nil, fmt.Errorf("descriptor: instruction %d: zero-iteration loop level %d", i, l)
				}
			}
		}
		d.Instrs[i] = in
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("descriptor: decoded descriptor invalid: %w", err)
	}
	return d, nil
}

// ParamsOf returns the parameter block of the i-th COMP instruction.
func (d *Descriptor) ParamsOf(comp int) (Params, error) {
	if comp < 0 || comp >= len(d.params) {
		return nil, fmt.Errorf("descriptor: no parameter block %d (have %d)", comp, len(d.params))
	}
	return d.params[comp], nil
}

// Disassemble renders the instruction region as a human-readable listing
// (what cmd/tdlc -dump prints).
func (d *Descriptor) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "descriptor: %d instructions, %d accelerator invocations, %v encoded\n",
		len(d.Instrs), d.Comps(), d.Size())
	indent := ""
	for i, in := range d.Instrs {
		switch in.Kind {
		case KindComp:
			fmt.Fprintf(&b, "%3d  %sCOMP    %v\n", i, indent, in.Op)
		case KindEndPass:
			fmt.Fprintf(&b, "%3d  %sENDPASS\n", i, indent)
		case KindLoop:
			fmt.Fprintf(&b, "%3d  %sLOOP    counts=%v total=%d\n", i, indent, in.Counts, in.Counts.Total())
			indent = "  "
		case KindEndLoop:
			indent = ""
			fmt.Fprintf(&b, "%3d  %sENDLOOP\n", i, indent)
		default:
			fmt.Fprintf(&b, "%3d  %s<unknown kind %d>\n", i, indent, in.Kind)
		}
	}
	return b.String()
}
