package noc

// Inter-stack interconnect: the links between memory stacks in a
// multi-stack system (HMC-style chaining, Figure 2's Remote Memory Stacks).
// Unlike the intra-layer mesh above, what matters here is contention: an
// iterated sharded SpMV exchanges vector segments between every pair of
// stacks each iteration, and with one SerDes port per direction per stack
// those transfers serialise. The model keeps a units.Timeline per port, the
// type the OOC staging link reserves too, so a schedule of Sends yields deterministic per-transfer start/finish times, per-link byte
// counters for traffic-conservation checks, and link energy for the pJ
// accounting.

import (
	"fmt"

	"mealib/internal/units"
)

// InterStackConfig parameterises the stack-to-stack network: a crossbar of
// point-to-point serial links with one egress and one ingress port per
// stack. A transfer occupies its source's egress port and its destination's
// ingress port for the serialisation time, then lands after the head
// latency.
type InterStackConfig struct {
	Stacks int
	// LinkBW is the bandwidth of one port (one direction).
	LinkBW units.BytesPerSec
	// LinkLatency is the head latency of a transfer: SerDes plus traversal,
	// paid once per Send after serialisation.
	LinkLatency units.Seconds
	// EBit is the energy to move one bit stack-to-stack.
	EBit units.Joules
}

// MEALibInterStack returns the inter-stack network: one HMC link pair per
// port at ~8 pJ/bit. The accel model takes its remote-access parameters
// (RemoteLinkBW, ELinkBit) from here, so a sharded launch and a remote
// gather price cross-stack bytes identically: for the same bytes,
// accel.Config.StagingCost is a Send's serialisation time and its energy.
func MEALibInterStack(stacks int) *InterStackConfig {
	return &InterStackConfig{
		Stacks:      stacks,
		LinkBW:      units.GBps(40),
		LinkLatency: 32 * units.Nanosecond,
		EBit:        8e-12,
	}
}

// Validate reports configuration errors.
func (c *InterStackConfig) Validate() error {
	switch {
	case c.Stacks < 1:
		return fmt.Errorf("noc: inter-stack network needs at least one stack, got %d", c.Stacks)
	case c.LinkBW <= 0:
		return fmt.Errorf("noc: non-positive inter-stack link bandwidth")
	case c.LinkLatency < 0:
		return fmt.Errorf("noc: negative inter-stack link latency")
	case c.EBit < 0:
		return fmt.Errorf("noc: negative inter-stack link energy per bit")
	}
	return nil
}

// InterStack is the stateful timeline of one inter-stack network: port
// occupancy in model time plus traffic and energy accounting. It is not
// safe for concurrent use; callers schedule Sends in a deterministic order.
type InterStack struct {
	cfg InterStackConfig
	// egress and ingress are each stack's two ports.
	egress, ingress []units.Timeline
	// pair[s][d] counts bytes sent from stack s to stack d.
	pair   [][]units.Bytes
	energy units.Joules
}

// NewInterStack builds an idle network.
func NewInterStack(cfg InterStackConfig) (*InterStack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &InterStack{
		cfg:     cfg,
		egress:  make([]units.Timeline, cfg.Stacks),
		ingress: make([]units.Timeline, cfg.Stacks),
		pair:    make([][]units.Bytes, cfg.Stacks),
	}
	for s := range n.pair {
		n.pair[s] = make([]units.Bytes, cfg.Stacks)
	}
	return n, nil
}

// Config returns the network parameters.
func (n *InterStack) Config() InterStackConfig { return n.cfg }

// Send schedules a transfer of b bytes from stack src to stack dst, ready
// at model time at. It starts when the source egress port, the destination
// ingress port, and the data are all available, occupies both ports for the
// serialisation time, and completes (data usable at dst) after the head
// latency. Same-stack sends are free and unaccounted — that traffic never
// leaves the stack. Returns the transfer's start and completion times.
func (n *InterStack) Send(src, dst int, b units.Bytes, at units.Seconds) (start, end units.Seconds, err error) {
	if src < 0 || src >= n.cfg.Stacks || dst < 0 || dst >= n.cfg.Stacks {
		return 0, 0, fmt.Errorf("noc: inter-stack send %d->%d outside %d stacks", src, dst, n.cfg.Stacks)
	}
	if b < 0 {
		return 0, 0, fmt.Errorf("noc: inter-stack send of %d bytes", b)
	}
	if src == dst || b == 0 {
		return at, at, nil
	}
	// Both ports are held for the same window: the egress reservation
	// waits for the ingress port too, so the ingress one starts with it.
	serial := n.cfg.LinkBW.Time(b)
	start, end = n.egress[src].Reserve(max(at, n.ingress[dst].Free()), serial)
	n.ingress[dst].Reserve(start, serial)
	n.pair[src][dst] += b
	n.energy += units.Joules(float64(b) * 8 * float64(n.cfg.EBit))
	return start, end + n.cfg.LinkLatency, nil
}

// Energy returns the total link energy of all accounted transfers.
func (n *InterStack) Energy() units.Joules { return n.energy }

// PairBytes returns the bytes sent from src to dst so far.
func (n *InterStack) PairBytes(src, dst int) units.Bytes { return n.pair[src][dst] }

// BytesSent returns the bytes stack k has put on its egress port.
func (n *InterStack) BytesSent(k int) units.Bytes {
	var total units.Bytes
	for d := range n.pair[k] {
		total += n.pair[k][d]
	}
	return total
}

// BytesReceived returns the bytes stack k has taken off its ingress port.
// By construction every byte sent to k is received by k, so
// sum_s PairBytes(s, k) is both sides of the conservation check: gates
// compare it against independently kept per-shard counters.
func (n *InterStack) BytesReceived(k int) units.Bytes {
	var total units.Bytes
	for s := range n.pair {
		total += n.pair[s][k]
	}
	return total
}

// TotalBytes returns all bytes moved between distinct stacks.
func (n *InterStack) TotalBytes() units.Bytes {
	var total units.Bytes
	for s := range n.pair {
		total += n.BytesSent(s)
	}
	return total
}

// EgressBusy returns stack k's accumulated egress serialisation time — the
// port-occupancy counter telemetry reports.
func (n *InterStack) EgressBusy(k int) units.Seconds { return n.egress[k].Busy() }
