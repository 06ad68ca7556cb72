package noc

import (
	"math"
	"math/rand"
	"testing"

	"mealib/internal/units"
)

// testNet returns a 4-stack network with round numbers: 1 GB/s links
// (1 KiB serialises in 1.024 us) and 100 ns head latency.
func testNet(t *testing.T) *InterStack {
	t.Helper()
	n, err := NewInterStack(InterStackConfig{
		Stacks:      4,
		LinkBW:      units.GBps(1),
		LinkLatency: 100 * units.Nanosecond,
		EBit:        1e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func seconds(t *testing.T, got, want units.Seconds, what string) {
	t.Helper()
	if !units.CloseTo(float64(got), float64(want)) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestInterStackSingleTransfer(t *testing.T) {
	n := testNet(t)
	const b = 1000 // 1000 B at 1 GB/s = exactly 1 us serialisation
	serial := units.Seconds(1e-6)
	lat := units.Seconds(100e-9)
	start, end, err := n.Send(0, 1, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	seconds(t, start, 0, "start")
	seconds(t, end, serial+lat, "end")
	if got := n.Energy(); !units.CloseTo(float64(got), b*8*1e-12) {
		t.Errorf("energy = %v, want %v", got, b*8*1e-12)
	}
}

// TestInterStackSaturatedLink drives one source-destination pair with k
// back-to-back transfers all ready at t=0. The shared ports serialise them:
// transfer i starts at i*serial and lands at (i+1)*serial + latency, so the
// last completion is k*serial + latency — pure bandwidth saturation, head
// latency paid once per transfer but hidden behind the next serialisation.
func TestInterStackSaturatedLink(t *testing.T) {
	n := testNet(t)
	const b, k = 1000, 5
	serial := units.Seconds(1e-6)
	lat := units.Seconds(100e-9)
	for i := 0; i < k; i++ {
		start, end, err := n.Send(2, 3, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		seconds(t, start, units.Seconds(i)*serial, "start of transfer")
		seconds(t, end, units.Seconds(i+1)*serial+lat, "end of transfer")
	}
	if got := n.PairBytes(2, 3); got != b*k {
		t.Errorf("pair bytes = %d, want %d", got, b*k)
	}
	seconds(t, n.EgressBusy(2), k*serial, "egress busy")
}

// TestInterStackFanIn aims three sources at one destination at t=0. The
// destination's single ingress port is the bottleneck: the transfers
// serialise in submission order even though each source's egress port is
// otherwise idle, so source s's transfer starts at s*serial.
func TestInterStackFanIn(t *testing.T) {
	n := testNet(t)
	const b = 2000
	serial := units.Seconds(2e-6)
	lat := units.Seconds(100e-9)
	for s := 1; s < 4; s++ {
		start, end, err := n.Send(s, 0, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		seconds(t, start, units.Seconds(s-1)*serial, "fan-in start")
		seconds(t, end, units.Seconds(s)*serial+lat, "fan-in end")
		// The source's own egress was free: its busy time is one transfer.
		seconds(t, n.EgressBusy(s), serial, "source egress busy")
	}
	if got := n.BytesReceived(0); got != 3*b {
		t.Errorf("received = %d, want %d", got, 3*b)
	}
}

// TestInterStackFanOut is the mirror case: one source, three destinations,
// bottlenecked on the source's egress port.
func TestInterStackFanOut(t *testing.T) {
	n := testNet(t)
	const b = 500
	serial := units.Seconds(0.5e-6)
	lat := units.Seconds(100e-9)
	for d := 1; d < 4; d++ {
		start, end, err := n.Send(0, d, b, 0)
		if err != nil {
			t.Fatal(err)
		}
		seconds(t, start, units.Seconds(d-1)*serial, "fan-out start")
		seconds(t, end, units.Seconds(d)*serial+lat, "fan-out end")
	}
	if got := n.BytesSent(0); got != 3*b {
		t.Errorf("sent = %d, want %d", got, 3*b)
	}
}

// TestInterStackDisjointPairsOverlap checks the crossbar property: 0->1 and
// 2->3 share no port, so both start immediately and finish as if alone.
func TestInterStackDisjointPairsOverlap(t *testing.T) {
	n := testNet(t)
	const b = 4000
	serial := units.Seconds(4e-6)
	lat := units.Seconds(100e-9)
	for _, pair := range [][2]int{{0, 1}, {2, 3}} {
		start, end, err := n.Send(pair[0], pair[1], b, 0)
		if err != nil {
			t.Fatal(err)
		}
		seconds(t, start, 0, "disjoint start")
		seconds(t, end, serial+lat, "disjoint end")
	}
}

// TestInterStackReadyTime checks the data-ready time participates in the
// start max: a transfer ready after the port frees starts at its ready
// time, not the port-free time.
func TestInterStackReadyTime(t *testing.T) {
	n := testNet(t)
	const b = 1000
	serial := units.Seconds(1e-6)
	if _, _, err := n.Send(0, 1, b, 0); err != nil {
		t.Fatal(err)
	}
	at := 10 * serial
	start, _, err := n.Send(0, 1, b, at)
	if err != nil {
		t.Fatal(err)
	}
	seconds(t, start, at, "late-ready start")
}

func TestInterStackLocalAndZeroSendsFree(t *testing.T) {
	n := testNet(t)
	start, end, err := n.Send(1, 1, 1<<20, 5e-6)
	if err != nil {
		t.Fatal(err)
	}
	seconds(t, start, 5e-6, "local start")
	seconds(t, end, 5e-6, "local end")
	if _, _, err := n.Send(0, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if n.TotalBytes() != 0 || n.Energy() != 0 {
		t.Errorf("local/zero sends accounted: %d bytes, %v J", n.TotalBytes(), n.Energy())
	}
}

// TestInterStackConservation checks the per-link ledger balances: for every
// stack, bytes received equal the column sum of the pair matrix, and the
// global sent/received totals agree.
func TestInterStackConservation(t *testing.T) {
	n := testNet(t)
	sends := []struct {
		src, dst int
		b        units.Bytes
	}{
		{0, 1, 100}, {1, 0, 200}, {2, 3, 300}, {3, 2, 400},
		{0, 3, 500}, {1, 2, 600}, {2, 0, 700}, {0, 1, 800},
	}
	at := units.Seconds(0)
	for _, s := range sends {
		if _, _, err := n.Send(s.src, s.dst, s.b, at); err != nil {
			t.Fatal(err)
		}
		at += 1e-7
	}
	var sent, recvd units.Bytes
	for k := 0; k < 4; k++ {
		sent += n.BytesSent(k)
		recvd += n.BytesReceived(k)
	}
	if sent != recvd || sent != n.TotalBytes() {
		t.Errorf("conservation: sent %d, received %d, total %d", sent, recvd, n.TotalBytes())
	}
	if got := n.PairBytes(0, 1); got != 900 {
		t.Errorf("pair(0,1) = %d, want 900", got)
	}
}

func TestInterStackErrors(t *testing.T) {
	n := testNet(t)
	if _, _, err := n.Send(-1, 0, 10, 0); err == nil {
		t.Error("negative src accepted")
	}
	if _, _, err := n.Send(0, 4, 10, 0); err == nil {
		t.Error("dst out of range accepted")
	}
	if _, _, err := n.Send(0, 1, -5, 0); err == nil {
		t.Error("negative bytes accepted")
	}
	if _, err := NewInterStack(InterStackConfig{Stacks: 0, LinkBW: 1}); err == nil {
		t.Error("zero stacks accepted")
	}
	if _, err := NewInterStack(InterStackConfig{Stacks: 2}); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := NewInterStack(InterStackConfig{Stacks: 2, LinkBW: 1, EBit: -1e-12}); err == nil {
		t.Error("negative link energy accepted")
	}
}

// TestInterStackReplaysPortLedger replays a seeded random schedule of Sends
// against the port ledger InterStack kept before its ports became
// units.Timelines: a free time per egress and ingress port and a busy sum per
// egress port, in that ledger's float order. Every start, end and EgressBusy
// must repeat bit for bit.
func TestInterStackReplaysPortLedger(t *testing.T) {
	const stacks = 4
	cfg := *MEALibInterStack(stacks)
	n, err := NewInterStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var egressFree, ingressFree, egressBusy [stacks]units.Seconds
	bits := func(s units.Seconds) uint64 { return math.Float64bits(float64(s)) }
	rng := rand.New(rand.NewSource(1))
	var at units.Seconds
	for i := 0; i < 2000; i++ {
		src, dst := rng.Intn(stacks), rng.Intn(stacks)
		b := units.Bytes(rng.Intn(1 << 16))
		at += units.Seconds(rng.Float64()) * units.Microsecond
		ready := max(0, at-units.Seconds(rng.Float64())*2*units.Microsecond)
		start, end, err := n.Send(src, dst, b, ready)
		if err != nil {
			t.Fatal(err)
		}
		wantStart, wantEnd := ready, ready
		if src != dst && b != 0 {
			if egressFree[src] > wantStart {
				wantStart = egressFree[src]
			}
			if ingressFree[dst] > wantStart {
				wantStart = ingressFree[dst]
			}
			serial := cfg.LinkBW.Time(b)
			egressFree[src] = wantStart + serial
			ingressFree[dst] = wantStart + serial
			egressBusy[src] += serial
			wantEnd = wantStart + serial + cfg.LinkLatency
		}
		if bits(start) != bits(wantStart) || bits(end) != bits(wantEnd) {
			t.Fatalf("send %d (%d->%d, %d B at %v): [%v, %v), the ledger gives [%v, %v)",
				i, src, dst, b, ready, start, end, wantStart, wantEnd)
		}
	}
	for k := range egressBusy {
		if bits(n.EgressBusy(k)) != bits(egressBusy[k]) {
			t.Errorf("stack %d: EgressBusy %v, the ledger gives %v", k, n.EgressBusy(k), egressBusy[k])
		}
	}
}

// TestMeshSaturation pins the mesh Transfer contention-free analytic form:
// head latency hops*HopLatency plus serialisation n/LinkBW, and energy
// linear in bytes and hops.
func TestMeshSaturation(t *testing.T) {
	c := MEALibMesh()
	a, _ := c.tileCoord(0)
	b, _ := c.tileCoord(15) // opposite corner: 6 hops
	const n = 1 << 16
	lat, e := c.Transfer(a, b, n)
	wantLat := 6*float64(c.HopLatency) + float64(n)/float64(c.LinkBW)
	if !units.CloseTo(float64(lat), wantLat) {
		t.Errorf("mesh latency = %v, want %v", lat, wantLat)
	}
	wantE := float64(n) * 8 * 6 * float64(c.EBitHop)
	if !units.CloseTo(float64(e), wantE) {
		t.Errorf("mesh energy = %v, want %v", e, wantE)
	}
}
