//go:build race

package accel

// raceEnabled reports that the test binary runs under the race detector,
// whose sync.Pool drops a quarter of its Puts: an allocation count that a
// pool holds down is exact only without it.
const raceEnabled = true
