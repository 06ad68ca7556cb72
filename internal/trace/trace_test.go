package trace

import (
	"testing"

	"mealib/internal/dram"
	"mealib/internal/phys"
	"mealib/internal/units"
)

func TestStreamCoversExactly(t *testing.T) {
	tr := Stream(0x1000, 1000, 256, false)
	if got := bytesOf(tr); got != 1000 {
		t.Errorf("stream bytes = %v, want 1000", got)
	}
	if len(tr) != 4 {
		t.Errorf("stream requests = %d, want 4 (3x256 + 232)", len(tr))
	}
	last := tr[len(tr)-1]
	if last.Size != 1000-3*256 {
		t.Errorf("tail request size = %v", last.Size)
	}
	if tr[0].Addr != 0x1000 || tr[1].Addr != 0x1100 {
		t.Error("stream addresses must be sequential")
	}
}

func TestStreamDefaultsChunk(t *testing.T) {
	tr := Stream(0, 128, 0, true)
	if len(tr) != 2 || tr[0].Size != 64 {
		t.Errorf("zero chunk must default to 64B: %+v", tr)
	}
	for _, r := range tr {
		if !r.Write {
			t.Error("write flag must propagate")
		}
	}
}

// bytesOf sums the sizes of all requests in the trace.
func bytesOf(tr []dram.Request) units.Bytes {
	var n units.Bytes
	for _, r := range tr {
		n += r.Size
	}
	return n
}

func TestStrided(t *testing.T) {
	tr := Strided(0, 4, 1024, 4, false)
	if len(tr) != 4 {
		t.Fatalf("requests = %d", len(tr))
	}
	for i, r := range tr {
		if r.Addr != phys.Addr(i*1024) || r.Size != 4 {
			t.Errorf("request %d = %+v", i, r)
		}
	}
}

func TestGather(t *testing.T) {
	tr := Gather(0x100, []int32{0, 5, 2}, 4, false)
	want := []phys.Addr{0x100, 0x100 + 20, 0x100 + 8}
	for i, r := range tr {
		if r.Addr != want[i] {
			t.Errorf("gather %d at %v, want %v", i, r.Addr, want[i])
		}
	}
}

func TestInterleave(t *testing.T) {
	a := Stream(0, 128, 64, false)     // 2 requests
	b := Stream(0x1000, 192, 64, true) // 3 requests
	c := Stream(0x2000, 64, 64, false) // 1 request
	m := Interleave(a, b, c)
	if len(m) != 6 {
		t.Fatalf("merged length = %d, want 6", len(m))
	}
	// Round-robin: a0 b0 c0 a1 b1 b2.
	wantAddr := []phys.Addr{0, 0x1000, 0x2000, 64, 0x1040, 0x1080}
	for i, r := range m {
		if r.Addr != wantAddr[i] {
			t.Errorf("merged[%d].Addr = %v, want %v", i, r.Addr, wantAddr[i])
		}
	}
	if bytesOf(m) != bytesOf(a)+bytesOf(b)+bytesOf(c) {
		t.Error("interleave must preserve total bytes")
	}
}

func TestInterleaveEmpty(t *testing.T) {
	if got := Interleave(); len(got) != 0 {
		t.Error("no traces must merge to empty")
	}
	if got := Interleave(nil, nil); len(got) != 0 {
		t.Error("empty traces must merge to empty")
	}
}

func TestTracesDriveSimulator(t *testing.T) {
	sim, err := dram.NewSimulator(dram.HMC3D())
	if err != nil {
		t.Fatal(err)
	}
	x := Stream(0, 64*units.KiB, 256, false)
	y := Stream(1<<20, 64*units.KiB, 256, false)
	w := Stream(1<<20, 64*units.KiB, 256, true)
	st := sim.Run(Interleave(x, y, w))
	if st.Bytes() != 3*64*units.KiB {
		t.Errorf("simulated bytes = %v", st.Bytes())
	}
	if st.Bandwidth().GBs() < 100 {
		t.Errorf("interleaved streams reach only %.0f GB/s", st.Bandwidth().GBs())
	}
}
