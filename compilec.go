package mealib

import (
	"mealib/internal/ccompiler"
	"mealib/internal/phys"
)

// CompiledProgram is the output of the source-to-source compiler over a
// legacy C translation unit: the transformed source, the generated
// accelerator plans, and the buffer inventory needed to bind them.
type CompiledProgram struct {
	res *ccompiler.Result
}

// CompileC runs the MEALib source-to-source compiler (paper §3.4) over a
// legacy C source. symbols supplies the compile-time integer constants
// (#define / -D values) that loop compaction needs.
func CompileC(src string, symbols map[string]int64) (*CompiledProgram, error) {
	res, err := ccompiler.Compile(src, ccompiler.Options{Symbols: symbols})
	if err != nil {
		return nil, err
	}
	return &CompiledProgram{res: res}, nil
}

// Source returns the transformed C source (malloc/free replaced with
// MEALib memory management, library calls replaced with accelerator plans).
func (c *CompiledProgram) Source() string { return c.res.Source }

// Summary describes the compilation (call sites, descriptors, compaction).
func (c *CompiledProgram) Summary() string { return c.res.Describe() }

// Descriptors returns the number of generated accelerator descriptors.
func (c *CompiledProgram) Descriptors() int { return c.res.Stats.Descriptors }

// CoveredCalls returns the dynamic library-call count the descriptors
// replace (the paper's "17M calls into 3 descriptors" accounting).
func (c *CompiledProgram) CoveredCalls() int64 { return c.res.Stats.CoveredCalls }

// BufferNames lists the accelerator-visible buffers the program declares,
// which Execute's binding must provide.
func (c *CompiledProgram) BufferNames() []string {
	var names []string
	for name := range c.res.Buffers {
		names = append(names, name)
	}
	return names
}

// BufferBinding maps a source-level buffer name to an allocated System
// buffer.
type BufferBinding struct {
	addr  phys.Addr
	elems int64
}

// Bind binds a buffer.
func Bind[T Elem](b *Buffer[T]) BufferBinding {
	return BufferBinding{addr: b.addr(0), elems: int64(b.Len())}
}

// Execute binds every generated plan against the provided buffers and
// runtime symbols, then runs them in program order on the system —
// the "link against the MEALib runtime and run" step of §3.5.
func (c *CompiledProgram) Execute(s *System, buffers map[string]BufferBinding, symbols map[string]int64) ([]*Run, error) {
	binding := &ccompiler.Binding{
		Buffers: make(map[string]ccompiler.BoundBuffer, len(buffers)),
		Ints:    symbols,
	}
	for name, b := range buffers {
		binding.Buffers[name] = ccompiler.BoundBuffer{PA: b.addr, Elems: b.elems}
	}
	var runs []*Run
	for _, plan := range c.res.Plans {
		tdlSrc, params, err := ccompiler.Bind(plan, binding)
		if err != nil {
			return runs, err
		}
		p, err := s.rt.AccPlan(tdlSrc, params)
		if err != nil {
			return runs, err
		}
		run, err := s.execute(p)
		if err != nil {
			return runs, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}
