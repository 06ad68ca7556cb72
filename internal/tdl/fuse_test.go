package tdl

import (
	"reflect"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/kernels"
	"mealib/internal/phys"
)

// fuseResolver binds the param refs of the fusion test programs to real
// addresses laid out back to back.
func fuseResolver(t *testing.T) ParamResolver {
	t.Helper()
	const n, nin = 1024, 768
	a := phys.Addr(0x10000)
	b := a + phys.Addr(8*n*16)
	c := b + phys.Addr(8*n*16)
	table := map[string]descriptor.Params{
		"fft.ab": accel.FFTArgs{N: n, HowMany: 1, Src: a, Dst: b}.Params(),
		"fft.bc": accel.FFTArgs{N: n, HowMany: 1, Src: b, Dst: c}.Params(),
		"fft.ca": accel.FFTArgs{N: n, HowMany: 1, Src: c, Dst: a}.Params(),
		"resmp.loop": accel.ResmpArgs{
			NIn: nin, NOut: n, Kind: accel.ResmpComplex + int64(kernels.InterpLinear),
			Src: a, Dst: b,
			LoopStrideSrc: accel.Lin(8 * nin), LoopStrideDst: accel.Lin(8 * n),
		}.Params(),
		"fft.loop": accel.FFTArgs{
			N: n, HowMany: 1, Src: b, Dst: b,
			LoopStrideSrc: accel.Lin(8 * n), LoopStrideDst: accel.Lin(8 * n),
		}.Params(),
	}
	return func(ref string) (descriptor.Params, error) {
		p, ok := table[ref]
		if !ok {
			t.Fatalf("unresolved param ref %q", ref)
		}
		return p, nil
	}
}

func TestFuseTopLevelPasses(t *testing.T) {
	prog, err := Parse(`
PASS { COMP FFT PARAMS "fft.ab" }
PASS { COMP FFT PARAMS "fft.bc" }
`)
	if err != nil {
		t.Fatal(err)
	}
	_, groups, err := Fuse(prog, fuseResolver(t), accel.MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Passes != 2 {
		t.Fatalf("groups = %+v, want one two-pass group", groups)
	}
	if len(prog.Blocks) != 1 {
		t.Fatalf("fused program has %d blocks, want 1", len(prog.Blocks))
	}
	pass, ok := prog.Blocks[0].(Pass)
	if !ok || len(pass.Comps) != 2 {
		t.Fatalf("fused block = %+v, want one pass with two comps", prog.Blocks[0])
	}
	// The fused program must compile to a single chained PASS.
	d, err := Compile(prog, fuseResolver(t))
	if err != nil {
		t.Fatal(err)
	}
	var passes int
	for _, in := range d.Instrs {
		if in.Kind == descriptor.KindEndPass {
			passes++
		}
	}
	if passes != 1 {
		t.Errorf("fused descriptor has %d passes, want 1", passes)
	}
}

func TestFuseLoopBodyPasses(t *testing.T) {
	prog, err := Parse(`
LOOP 16 {
  PASS { COMP RESMP PARAMS "resmp.loop" }
  PASS { COMP FFT PARAMS "fft.loop" }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, groups, err := Fuse(prog, fuseResolver(t), accel.MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || groups[0].Iters != 16 {
		t.Fatalf("groups = %+v, want one group x16 iterations", groups)
	}
	loop, ok := prog.Blocks[0].(Loop)
	if !ok || len(loop.Passes) != 1 || len(loop.Passes[0].Comps) != 2 {
		t.Fatalf("fused loop = %+v, want one two-comp pass", prog.Blocks[0])
	}
}

// TestFuseLeavesUnrelatedPasses: passes with no producer→consumer handoff
// must come through structurally untouched.
func TestFuseLeavesUnrelatedPasses(t *testing.T) {
	src := `
PASS { COMP FFT PARAMS "fft.ab" }
PASS { COMP FFT PARAMS "fft.ca" }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, groups, err := Fuse(prog, fuseResolver(t), accel.MEALibConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("unrelated passes fused: %+v", groups)
	}
	if len(prog.Blocks) != 2 {
		t.Fatalf("program restructured without fusion: %d blocks", len(prog.Blocks))
	}
}

// TestFuseReturnsTheFusedProgramCompiled: the descriptor Fuse returns is
// the fused program compiled, whether a group applied (the rewritten program)
// or not (the descriptor the analysis compiled, returned as it is).
func TestFuseReturnsTheFusedProgramCompiled(t *testing.T) {
	for _, src := range []string{
		"PASS { COMP FFT PARAMS \"fft.ab\" }\nPASS { COMP FFT PARAMS \"fft.bc\" }\n",
		"LOOP 16 {\n  PASS { COMP RESMP PARAMS \"resmp.loop\" }\n  PASS { COMP FFT PARAMS \"fft.loop\" }\n}\n",
		"PASS { COMP FFT PARAMS \"fft.ab\" }\nPASS { COMP FFT PARAMS \"fft.ca\" }\n",
	} {
		prog, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		resolve := fuseResolver(t)
		got, _, err := Fuse(prog, resolve, accel.MEALibConfig())
		if err != nil {
			t.Fatal(err)
		}
		want, err := Compile(prog, resolve)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Fuse returned\n%+v\nwant the fused program compiled\n%+v", src, got, want)
		}
	}
}
