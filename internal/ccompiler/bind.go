package ccompiler

import (
	"fmt"
	"math/big"
	"strings"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
)

// BoundBuffer ties a source-level buffer name to its physically contiguous
// allocation.
type BoundBuffer struct {
	PA phys.Addr
	// Elems is the element count (used to derive __nnz_/__cols_ symbols
	// for SPMV).
	Elems int64
}

// Binding supplies the run-time values a generated plan needs: buffer
// addresses and the integer/float symbols its expressions reference. It is
// what linking the transformed program against the MEALib runtime provides.
type Binding struct {
	Buffers map[string]BoundBuffer
	Ints    map[string]int64
	Floats  map[string]float32
}

// ints returns the symbol table including the derived __nnz_/__cols_
// pseudo-symbols.
func (b *Binding) ints() map[string]int64 {
	out := make(map[string]int64, len(b.Ints)+2*len(b.Buffers))
	for k, v := range b.Ints {
		out[k] = v
	}
	for name, buf := range b.Buffers {
		out["__nnz_"+name] = buf.Elems
		out["__cols_"+name] = buf.Elems
	}
	return out
}

// Bind resolves a generated plan against a binding, producing the TDL text
// and concrete parameter table ready for mealibrt.Runtime.AccPlan.
func Bind(plan *Plan, b *Binding) (string, map[string]descriptor.Params, error) {
	if b == nil || b.Buffers == nil {
		return "", nil, fmt.Errorf("ccompiler: nil binding")
	}
	params := make(map[string]descriptor.Params, len(plan.Calls))
	for _, pc := range plan.Calls {
		p, err := bindCall(pc, b)
		if err != nil {
			return "", nil, fmt.Errorf("ccompiler: bind %s (line %d): %w", pc.Sym.Name, pc.Sym.Line, err)
		}
		params[pc.ParamRef] = p
	}
	return plan.TDL, params, nil
}

// resolve evaluates one symbolic field.
func (pcb *callBinder) resolve(fi int) (uint64, error) {
	f := pcb.pc.Sym.Fields[fi]
	switch pcb.pc.Sym.Schema[fi].Kind {
	case accel.FieldInt:
		v, err := EvalInt(f.Expr, pcb.ints)
		if err != nil {
			return 0, err
		}
		return uint64(v), nil
	case accel.FieldF32:
		v, err := EvalF32(f.Expr, pcb.ints, pcb.b.Floats)
		if err != nil {
			return 0, err
		}
		return descriptor.F32Field(v), nil
	default:
		a, err := pcb.bufAddr(fi)
		if err != nil {
			return 0, err
		}
		return descriptor.AddrField(a), nil
	}
}

// callBinder resolves the fields of one planned call.
type callBinder struct {
	pc   *PlannedCall
	b    *Binding
	ints map[string]int64
}

// bufAddr resolves a buffer field to a physical address including its
// constant index offset. The offset terms are evaluated in exact arithmetic:
// tdlcheck proves the descriptor's loop arithmetic stays inside the address
// space, and that proof is worthless if the compiler hands it a base address
// that already wrapped during binding.
func (pcb *callBinder) bufAddr(fi int) (phys.Addr, error) {
	ref := pcb.pc.Sym.Fields[fi].Buf
	name := ref.Name
	buf, ok := pcb.b.Buffers[name]
	if !ok {
		return 0, fmt.Errorf("unbound buffer %q", name)
	}
	addr := new(big.Int).SetUint64(uint64(buf.PA))
	for _, term := range pcb.pc.Offsets[fi] {
		v, err := EvalInt(term.Expr, pcb.ints)
		if err != nil {
			return 0, fmt.Errorf("offset of %q: %w", ref, err)
		}
		addr.Add(addr, new(big.Int).Mul(big.NewInt(v), big.NewInt(term.Mult)))
	}
	if addr.Sign() < 0 || !addr.IsUint64() {
		return 0, fmt.Errorf("offset of %q: bound address %v is outside the 64-bit physical space (offset arithmetic overflows)", ref, addr)
	}
	return phys.Addr(addr.Uint64()), nil
}

// strides returns the field's per-level strides as accel.Strides.
func (pcb *callBinder) strides(fi int) accel.Strides {
	var s accel.Strides
	raw := pcb.pc.Strides[fi]
	for i := range s {
		s[i] = raw[i]
	}
	return s
}

// bindCall assembles the concrete accelerator argument block for one call:
// the recognised fields resolved in order, laid out by the accelerator's
// parameter schema.
func bindCall(pc *PlannedCall, b *Binding) (descriptor.Params, error) {
	pcb := &callBinder{pc: pc, b: b, ints: b.ints()}
	head := make([]uint64, len(pc.Sym.Fields))
	for fi := range head {
		v, err := pcb.resolve(fi)
		if err != nil {
			return nil, err
		}
		head[fi] = v
	}
	return accel.Assemble(pc.Sym.Op, head, pcb.strides)
}

// Describe renders a human-readable summary of a compilation result (used
// by the mealibcc CLI).
func (r *Result) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "library call sites recognised : %d\n", r.Stats.CallSites)
	fmt.Fprintf(&b, "dynamic calls covered         : %d\n", r.Stats.CoveredCalls)
	fmt.Fprintf(&b, "accelerator descriptors       : %d\n", r.Stats.Descriptors)
	fmt.Fprintf(&b, "chained passes                : %d\n", r.Stats.ChainedPasses)
	fmt.Fprintf(&b, "loops compacted               : %d\n", r.Stats.CompactedLoops)
	fmt.Fprintf(&b, "malloc/free rewrites          : %d/%d\n", r.Stats.MallocRewrites, r.Stats.FreeRewrites)
	for _, p := range r.Plans {
		fmt.Fprintf(&b, "\n%s covers %d call(s):\n  %s\n", p.Name, p.CoveredCalls, p.TDL)
	}
	return b.String()
}
