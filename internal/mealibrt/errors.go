package mealibrt

import "errors"

// Typed session errors. The mealibd wire protocol maps these onto error
// codes, and the client package maps the codes back, so errors.Is works
// identically in-process and across the socket.
var (
	// ErrQuotaExceeded is returned by Session.MemAlloc when the allocation
	// would push the session past its configured memory quota.
	ErrQuotaExceeded = errors.New("mealibrt: session memory quota exceeded")
	// ErrQueueFull is returned by Plan.Submit when the session already has
	// MaxQueued submissions waiting for admission (backpressure: the caller
	// should drain some flights before submitting more).
	ErrQueueFull = errors.New("mealibrt: session submit queue full")
	// ErrSessionClosed is returned by every session operation after Close.
	ErrSessionClosed = errors.New("mealibrt: session closed")
	// ErrOverCapacity is returned by MemAlloc when the request exceeds the
	// physical data-space capacity and out-of-core execution is unavailable
	// (no staging region configured). With a staging region the same request
	// silently succeeds as a host-backed buffer — capacity becomes a
	// performance property, not a failure mode. Distinct
	// from ErrQuotaExceeded: quota is a per-tenant policy limit, capacity a
	// hardware fact.
	ErrOverCapacity = errors.New("mealibrt: allocation exceeds physical stack capacity")
	// ErrPlanStale is returned by Plan.Submit, Accept and Execute once the
	// plan's session has freed a buffer the plan's descriptor names: the plan
	// is launchable only while its footprint passes the namespace check it
	// passed at install, because the freed range may be another tenant's by
	// now. Install a new plan over live buffers.
	ErrPlanStale = errors.New("mealibrt: plan is stale")
)
