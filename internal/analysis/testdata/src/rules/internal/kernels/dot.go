package kernels

import . "runtime"

func dotProcs() int {
	return GOMAXPROCS(0) // want `one-fan-out: runtime\.GOMAXPROCS`
}
