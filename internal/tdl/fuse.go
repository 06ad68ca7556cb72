package tdl

import (
	"fmt"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
)

// Fuse runs the descriptor fusion analysis (accel.FusionGroups) over the
// compiled form of prog and applies the resulting merges to the program
// itself: adjacent producer→consumer passes — top-level or inside one LOOP
// body — collapse into single chained passes whose intermediates stay in
// tile-local memory. Because the merges come from the same analysis the
// accelerator layer's plan lowering uses, a Fused program compiles to
// exactly the chained passes the plan IR would have fused anyway; fusing at
// the TDL level additionally lets the descriptor verifier see (and check)
// the chained pass, and shrinks the descriptor the configuration unit must
// fetch and parse.
//
// The returned groups describe what merged, and the descriptor is the fused
// program compiled: when no group applies, the one the analysis ran on, so a
// program nothing fuses in is compiled once. prog is modified in place only
// when the analysis succeeds; any error leaves it untouched.
func Fuse(prog *Program, resolve ParamResolver, cfg *accel.Config) (*descriptor.Descriptor, []accel.FusedGroup, error) {
	d, err := Compile(prog, resolve)
	if err != nil {
		return nil, nil, err
	}
	groups, err := accel.FusionGroups(d, cfg)
	if err != nil {
		return nil, nil, err
	}
	if len(groups) == 0 {
		return d, nil, nil
	}
	// Map the analysis' program-order pass indices (counting every pass,
	// top-level and loop-body alike) onto program locations.
	type passLoc struct {
		block  int
		loop   bool
		inLoop int
	}
	var locs []passLoc
	for bi, blk := range prog.Blocks {
		switch v := blk.(type) {
		case Pass:
			locs = append(locs, passLoc{block: bi})
		case Loop:
			for pi := range v.Passes {
				locs = append(locs, passLoc{block: bi, loop: true, inLoop: pi})
			}
		}
	}
	// Apply in reverse program order so earlier locations stay valid.
	for gi := len(groups) - 1; gi >= 0; gi-- {
		g := groups[gi]
		if g.FirstPass < 0 || g.FirstPass+g.Passes > len(locs) {
			return nil, nil, fmt.Errorf("tdl: fusion group [%d,%d) outside program", g.FirstPass, g.FirstPass+g.Passes)
		}
		first := locs[g.FirstPass]
		if first.loop {
			lp, ok := prog.Blocks[first.block].(Loop)
			if !ok || first.inLoop+g.Passes > len(lp.Passes) {
				return nil, nil, fmt.Errorf("tdl: fusion group at pass %d does not fit its loop", g.FirstPass)
			}
			merged := Pass{Line: lp.Passes[first.inLoop].Line}
			for k := 0; k < g.Passes; k++ {
				merged.Comps = append(merged.Comps, lp.Passes[first.inLoop+k].Comps...)
			}
			passes := append([]Pass(nil), lp.Passes[:first.inLoop]...)
			passes = append(passes, merged)
			passes = append(passes, lp.Passes[first.inLoop+g.Passes:]...)
			lp.Passes = passes
			prog.Blocks[first.block] = lp
		} else {
			for k := 1; k < g.Passes; k++ {
				if err := MergePasses(prog, first.block); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	if d, err = Compile(prog, resolve); err != nil {
		return nil, nil, err
	}
	return d, groups, nil
}
