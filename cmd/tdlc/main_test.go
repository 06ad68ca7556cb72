package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/tdl"
)

// twoFFTs is two FFT passes over their own buffers.
const twoFFTs = `PASS { COMP FFT PARAMS "a.para" }
PASS { COMP FFT PARAMS "b.para" }
`

// TestDumpSizeIsTheProgramsOrNone: -dump prints the encoded size only when
// -params binds the real parameter blocks. Without a table the blocks are
// one-word placeholders, whose size is not the program's, and the header
// says the size is unknown.
func TestDumpSizeIsTheProgramsOrNone(t *testing.T) {
	dir := t.TempDir()
	prog := filepath.Join(dir, "two.tdl")
	if err := os.WriteFile(prog, []byte(twoFFTs), 0o644); err != nil {
		t.Fatal(err)
	}
	table := map[string]descriptor.Params{
		"a.para": accel.FFTArgs{N: 1024, HowMany: 1, Src: phys.Addr(0x10000), Dst: phys.Addr(0x10000)}.Params(),
		"b.para": accel.FFTArgs{N: 1024, HowMany: 1, Src: phys.Addr(0x20000), Dst: phys.Addr(0x20000)}.Params(),
	}
	raw, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	params := filepath.Join(dir, "params.json")
	if err := os.WriteFile(params, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := tdl.Parse(twoFFTs)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := tdl.Compile(parsed, tdl.MapResolver(table))
	if err != nil {
		t.Fatal(err)
	}
	placeholders, err := tdl.Compile(parsed, func(string) (descriptor.Params, error) { return descriptor.Params{0}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if bound.Size() == placeholders.Size() {
		t.Fatalf("real and placeholder blocks both encode to %v: the test shows nothing", bound.Size())
	}

	dump := func(args ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, strings.NewReader(""), &stdout, &stderr); code != 0 {
			t.Fatalf("tdlc %s: exit %d: %s", strings.Join(args, " "), code, stderr.String())
		}
		return stdout.String()
	}
	unbound := dump("-dump", prog)
	if strings.Contains(unbound, "encoded\n") || !strings.Contains(unbound, "encoded size unknown") {
		t.Errorf("-dump without -params claims a size:\n%s", unbound)
	}
	if !strings.Contains(unbound, placeholders.Listing()) {
		t.Errorf("-dump without -params:\n%s\nwant the listing\n%s", unbound, placeholders.Listing())
	}
	withParams := dump("-dump", "-params", params, prog)
	if want := fmt.Sprintf(", %v encoded\n", bound.Size()); !strings.Contains(withParams, want) {
		t.Errorf("-dump -params:\n%s\nwant the header to end %q", withParams, want)
	}
	if !strings.Contains(withParams, "fused: no producer→consumer pass chains") {
		t.Errorf("-dump -params fused passes over disjoint buffers:\n%s", withParams)
	}
}

// TestDumpRefusesWrappingCount: a trip count the descriptor's 32-bit count
// field cannot hold is a parse error, not a LOOP of its low 32 bits.
func TestDumpRefusesWrappingCount(t *testing.T) {
	var stdout, stderr strings.Builder
	src := `LOOP 4294967297 { PASS { COMP FFT PARAMS "f" } }`
	if code := run([]string{"-dump", "-"}, strings.NewReader(src), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "32-bit count field") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 naming the count field", code, stdout.String(), stderr.String())
	}
}
