package accel

import (
	"fmt"
	"sync"
)

// LinkController models the arbitration of paper §2.1: "The link controller
// arbitrates ownership of the DRAM between the CPU and the memory-side
// accelerators. We assume that the CPU and memory-side accelerators do not
// operate on the DRAM simultaneously... when the data is processed by
// accelerators, the accesses from the CPU are blocked by the link
// controller."
//
// The runtime acquires the controller for the accelerators around every
// descriptor execution. The controller is the ownership ledger, not the
// stall: the runtime makes a conflicting host access wait on the spans of
// the launches it has accepted (mealibrt's ordering rule), which is finer
// than whole-DRAM ownership, and HostMayAccess is left as the quiescence
// probe. The ledger still gives the coherence story of §3.5 its missing
// half: the wbinvd happens before ownership transfers, and ownership
// transfers back only when the accelerators are done.
type LinkController struct {
	mu    sync.Mutex
	owner linkOwner
	// holds counts concurrent accelerator-side holders (shared
	// acquisition): ownership returns to the host when the last in-flight
	// descriptor releases.
	holds int64
	// transfers counts ownership handovers (diagnostics).
	transfers int64
}

type linkOwner int

// Link ownership states.
const (
	ownerHost linkOwner = iota
	ownerAccelerators
)

// AcquireForAccelerators transfers exclusive DRAM ownership to the
// accelerator side. It fails if the accelerators already own the link
// (nested exclusive acquisition means a runtime bug: use AcquireShared for
// concurrent in-flight descriptors).
func (lc *LinkController) AcquireForAccelerators() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.owner == ownerAccelerators {
		return fmt.Errorf("accel: link controller already owned by accelerators")
	}
	lc.owner = ownerAccelerators
	lc.holds = 1
	lc.transfers++
	return nil
}

// ReleaseToHost returns ownership to the host.
func (lc *LinkController) ReleaseToHost() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.owner != ownerAccelerators {
		return fmt.Errorf("accel: link controller not owned by accelerators")
	}
	lc.owner = ownerHost
	lc.holds = 0
	lc.transfers++
	return nil
}

// AcquireShared takes (or joins) accelerator-side ownership for one
// in-flight descriptor. The first holder transfers ownership away from the
// host; further holders pile on. The span-conflict admission in the
// runtime guarantees concurrent holders touch disjoint data.
func (lc *LinkController) AcquireShared() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.holds == 0 {
		lc.owner = ownerAccelerators
		lc.transfers++
	}
	lc.holds++
}

// ReleaseShared drops one shared hold; the last release hands ownership
// back to the host.
func (lc *LinkController) ReleaseShared() error {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.owner != ownerAccelerators || lc.holds == 0 {
		return fmt.Errorf("accel: link controller not owned by accelerators")
	}
	lc.holds--
	if lc.holds == 0 {
		lc.owner = ownerHost
		lc.transfers++
	}
	return nil
}

// HostMayAccess reports whether host DRAM accesses are currently allowed.
func (lc *LinkController) HostMayAccess() bool {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.owner == ownerHost
}

// Transfers returns the number of ownership handovers.
func (lc *LinkController) Transfers() int64 {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.transfers
}
