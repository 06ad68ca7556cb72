package tdl

import (
	"fmt"

	"mealib/internal/descriptor"
)

// ParamResolver maps a COMP parameter reference (the "fft.para" strings the
// compiler emits) to the parameter fields of that invocation. In the paper
// these are files next to the generated code; here they are tables produced
// by the same compiler pass.
type ParamResolver func(ref string) (descriptor.Params, error)

// MapResolver adapts a plain map to a ParamResolver.
func MapResolver(m map[string]descriptor.Params) ParamResolver {
	return func(ref string) (descriptor.Params, error) {
		p, ok := m[ref]
		if !ok {
			return nil, fmt.Errorf("no parameter block named %q", ref)
		}
		return p, nil
	}
}

// Compile lowers a TDL program to an accelerator descriptor, resolving every
// parameter reference. The descriptor's invocations are the program's COMPs in
// program order; an error names the source line it belongs to.
func Compile(prog *Program, resolve ParamResolver) (*descriptor.Descriptor, error) {
	if prog == nil || len(prog.Blocks) == 0 {
		return nil, fmt.Errorf("tdl: empty program")
	}
	if resolve == nil {
		return nil, fmt.Errorf("tdl: nil parameter resolver")
	}
	d := &descriptor.Descriptor{}
	addPass := func(pass Pass) error {
		for _, c := range pass.Comps {
			p, err := resolve(c.ParamRef)
			if err != nil {
				return fmt.Errorf("tdl: line %d: dangling parameter reference: %w", c.Line, err)
			}
			if err := d.AddComp(c.Op, p); err != nil {
				return fmt.Errorf("tdl: line %d: %w", c.Line, err)
			}
		}
		d.AddEndPass()
		return nil
	}
	for _, blk := range prog.Blocks {
		switch v := blk.(type) {
		case Pass:
			if err := addPass(v); err != nil {
				return nil, err
			}
		case Loop:
			lc, err := descriptor.CountsOf(v.Counts)
			if err == nil {
				err = d.AddLoop(lc[:]...)
			}
			if err != nil {
				return nil, fmt.Errorf("tdl: line %d: %w", v.Line, err)
			}
			for _, pass := range v.Passes {
				if err := addPass(pass); err != nil {
					return nil, err
				}
			}
			d.AddEndLoop()
		default:
			return nil, fmt.Errorf("tdl: unknown block type %T", blk)
		}
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
