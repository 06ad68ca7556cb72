// Package par is analyzer test data: the one fan-out may ask the core count
// and start its helpers.
package par

import "runtime"

func Do(f func()) {
	n := runtime.GOMAXPROCS(0)
	for i := 1; i < n; i++ {
		go f()
	}
	f()
}
