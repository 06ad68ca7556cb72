package kernels

import "runtime"

// Test files are outside the one-fan-out rows.
func testProcs() int { go work(); return runtime.GOMAXPROCS(0) }
