// Package noc is analyzer test data: a serially reused link is a
// units.Timeline, not a ledger of its own.
package noc

var egressFree float64 // want `one-clock: egressFree`
