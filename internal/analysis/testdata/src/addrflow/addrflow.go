// Package addrflow is analyzer test data: physical addresses laundered
// through bare integer arithmetic re-entering address-consuming sinks, the
// span-laundering hole in the runtime's initialized-span tracking.
package addrflow

import (
	"fmt"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
)

// span mirrors the verifier's span constructors: a struct carrying a
// physical address field is an address sink.
type span struct {
	Addr  phys.Addr
	Bytes int64
}

// launderedStore is the canonical hole: the buffer base is round-tripped
// through uintptr arithmetic, so the Store lands at an address the
// initialized-span tracker never saw.
func launderedStore(s *phys.Space, r *phys.Region, v []float32) {
	raw := uintptr(r.Addr()) + 64
	addr := phys.Addr(raw)
	_ = s.StoreFloat32s(addr, v) // want `addr reaches the first argument of s\.StoreFloat32s with its phys\.Addr provenance laundered`
}

// launderedGenericStore reaches the generic element store, an address sink
// for every element type.
func launderedGenericStore(s *phys.Space, r *phys.Region, v []complex64) {
	raw := uint64(r.Addr()) + 8
	_ = phys.Store(s, phys.Addr(raw), v) // want `phys\.Addr\(raw\) reaches the second argument of phys\.Store with its phys\.Addr provenance laundered`
}

// launderedViaInt64 washes the address through int64 offset math and a
// helper-typed variable before the view constructor consumes it.
func launderedViaInt64(s *phys.Space, r *phys.Region) []byte {
	base := int64(r.Addr())
	off := base + 128
	b, _ := s.ViewBytes(phys.Addr(off), 16) // want `phys\.Addr\(off\) reaches the first argument of s\.ViewBytes`
	return b
}

// launderedSpanField re-enters through a span constructor: the field is
// typed phys.Addr, the value lost its provenance two assignments ago.
func launderedSpanField(r *phys.Region) span {
	u := uint64(r.Addr())
	u += 32
	return span{Addr: phys.Addr(u), Bytes: 32} // want `phys\.Addr\(u\) reaches field Addr of`
}

// launderedFieldAssign stores a counterfeit address into an existing
// struct's Addr-typed field.
func launderedFieldAssign(sp *span, r *phys.Region) {
	w := uint64(r.Addr()) | 1
	sp.Addr = phys.Addr(w) // want `phys\.Addr\(w\) reaches field sp\.Addr`
}

// launderedLoopCarried accumulates the laundering across a loop-carried
// chain; the fixpoint must converge on the tainted state.
func launderedLoopCarried(s *phys.Space, r *phys.Region, n int) {
	p := uint64(r.Addr())
	for i := 0; i < n; i++ {
		p += 4
	}
	_ = s.WriteFloat32(phys.Addr(p), 1) // want `phys\.Addr\(p\) reaches the first argument of s\.WriteFloat32`
}

// launderHelper strips provenance through the descriptor field packer; the
// analyzer knows AddrField by contract.
func launderHelper(s *phys.Space, a phys.Addr) {
	f := descriptor.AddrField(a) + 8
	_ = s.WriteUint32(phys.Addr(f), 0) // want `phys\.Addr\(f\) reaches the first argument of s\.WriteUint32`
}

// sink is a module-local consumer: any phys.Addr parameter is an address
// sink, not just the phys package's own accessors.
func sink(a phys.Addr) phys.Addr { return a }

func launderedIntoLocalSink(r *phys.Region) phys.Addr {
	x := uintptr(r.Addr()) &^ 63
	return sink(phys.Addr(x)) // want `phys\.Addr\(x\) reaches the first argument of sink`
}

// escapeGlobal parks a laundered address in a package-level variable —
// the pass cannot follow it, so it reports the escape conservatively.
var stash uint64

func escapeGlobal(r *phys.Region) {
	stash = uint64(r.Addr()) + 4 // want `laundered physical address .* escapes into package-level variable stash`
}

// escapeIndirect hands a laundered address to a function value; the callee
// is unknown, the provenance is gone.
func escapeIndirect(r *phys.Region, f func(uint64)) {
	f(uint64(r.Addr()) * 2) // want `laundered physical address .* escapes into an indirect call to f`
}

// escapeChannel sends a laundered address across a channel.
func escapeChannel(r *phys.Region, ch chan uint64) {
	ch <- uint64(r.Addr()) ^ 0xfff // want `laundered physical address .* escapes into a channel send`
}

// cleanTypedArithmetic is the supported idiom: offsets stay typed, the
// provenance is visible end to end. Never flagged.
func cleanTypedArithmetic(s *phys.Space, r *phys.Region, off int64, v []float32) {
	addr := r.Addr() + phys.Addr(4*off)
	_ = s.StoreFloat32s(addr, v)
}

// cleanComparisons use the integer image of an address without ever
// re-entering the address space: alignment checks, wrap guards, ordering.
func cleanComparisons(a, b phys.Addr, n int64) bool {
	if uint64(a)+uint64(n) < uint64(a) {
		return false
	}
	return int64(a)%64 == 0 && a < b
}

// cleanFormatting prints the integer image through a concrete diagnostic
// call; display never re-enters the address space.
func cleanFormatting(a phys.Addr) string {
	return fmt.Sprintf("0x%012x", uint64(a))
}

// cleanFieldPacking passes a typed address to the descriptor packer — the
// boundary where serialization legitimately strips provenance.
func cleanFieldPacking(a phys.Addr) uint64 {
	return descriptor.AddrField(a)
}

// cleanSpanConstruction builds a span from typed values.
func cleanSpanConstruction(a phys.Addr, n int64) span {
	return span{Addr: a, Bytes: n}
}

// cleanOffsetExtraction converts the difference of two addresses to an
// integer: ptr - ptr is an offset, not an address, so the size math carries
// no provenance and the typed re-base stays clean.
func cleanOffsetExtraction(s *phys.Space, start, end phys.Addr, v []float32) span {
	n := int64(end - start)
	_ = s.StoreFloat32s(start+phys.Addr(n/2), v)
	return span{Addr: start, Bytes: n}
}

// cleanRegionWalk mirrors the runtime's copyRange: the cursor stays an int
// because it is only ever a count of bytes already copied; the address it is
// added to keeps its type, and the in-region offset is an address
// difference.
func cleanRegionWalk(s *phys.Space, r *phys.Region, addr phys.Addr, n int) {
	done := 0
	for done < n {
		off := int(addr + phys.Addr(done) - r.Addr())
		take := n - off
		_ = take
		done += take
	}
}
