// Package trace generates the memory access traces MEALib accelerators feed
// to the DRAM simulator (paper §4.3, Figure 8: "we first generate memory
// traces from accelerators, and treat them as inputs for an in-house
// cycle-accurate 3D-stacked DRAM simulator"). Each generator reflects the
// access pattern of one accelerator class: linear streams (AXPY, DOT),
// strided walks (GEMV columns, RESHP), and index-driven gathers (SPMV).
package trace

import (
	"mealib/internal/dram"
	"mealib/internal/phys"
	"mealib/internal/units"
)

// Stream returns a sequential trace covering n bytes from base, in chunks of
// the given request size.
func Stream(base phys.Addr, n units.Bytes, chunk units.Bytes, write bool) []dram.Request {
	if chunk <= 0 {
		chunk = 64
	}
	var out []dram.Request
	for off := units.Bytes(0); off < n; off += chunk {
		sz := chunk
		if off+sz > n {
			sz = n - off
		}
		out = append(out, dram.Request{Addr: base + phys.Addr(off), Size: sz, Write: write})
	}
	return out
}

// Strided returns a trace of count accesses of elem bytes, stride bytes
// apart, starting at base. A stride equal to elem degenerates to a stream.
func Strided(base phys.Addr, count int, stride, elem units.Bytes, write bool) []dram.Request {
	out := make([]dram.Request, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, dram.Request{
			Addr:  base + phys.Addr(units.Bytes(i)*stride),
			Size:  elem,
			Write: write,
		})
	}
	return out
}

// Gather returns a trace of element accesses at base + idx*elem for each
// index, the pattern of SPMV's x-vector reads.
func Gather(base phys.Addr, indices []int32, elem units.Bytes, write bool) []dram.Request {
	out := make([]dram.Request, 0, len(indices))
	for _, ix := range indices {
		out = append(out, dram.Request{
			Addr:  base + phys.Addr(units.Bytes(ix)*elem),
			Size:  elem,
			Write: write,
		})
	}
	return out
}

// Interleave merges several traces round-robin, modelling an accelerator
// issuing its concurrent operand streams (e.g. AXPY reading x and y while
// writing y) so bank conflicts between streams are visible to the DRAM
// simulator.
func Interleave(traces ...[]dram.Request) []dram.Request {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]dram.Request, 0, total)
	idx := make([]int, len(traces))
	for len(out) < total {
		for i, t := range traces {
			if idx[i] < len(t) {
				out = append(out, t[idx[i]])
				idx[i]++
			}
		}
	}
	return out
}
