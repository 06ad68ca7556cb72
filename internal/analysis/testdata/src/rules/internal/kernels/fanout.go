// Package kernels is analyzer test data for the one-fan-out rows: a kernel
// that asks the core count or starts goroutines of its own, however the
// runtime package is imported.
package kernels

import rt "runtime"

func procs() int {
	return rt.GOMAXPROCS(0) // want `one-fan-out: runtime\.GOMAXPROCS`
}

func procsFunc() func(int) int {
	f := rt.GOMAXPROCS // want `one-fan-out: runtime\.GOMAXPROCS`
	return f
}

func work() {}

func fanOut() {
	go work() // want `one-fan-out: go statement`
}

// A comment that says runtime.GOMAXPROCS or "go work()" is no code.
const note = "runtime.GOMAXPROCS(0)"
