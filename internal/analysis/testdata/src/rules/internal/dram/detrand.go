// Package dram is analyzer test data for the detrand row: wall-clock time
// and unseeded randomness in a deterministic simulator package.
package dram

import (
	"math/rand"
	"time"
)

func jitter() float64 {
	return rand.Float64() // want `detrand: rand\.Float64`
}

func shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { // want `detrand: rand\.Shuffle`
		xs[i], xs[j] = xs[j], xs[i]
	})
}

func stamp() int64 {
	return time.Now().UnixNano() // want `detrand: time\.Now`
}

func draw() func(int) int {
	return rand.Intn // want `detrand: rand\.Intn`
}

func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // seeded source: fine
	return r.Float64()
}

func elapsed(d time.Duration) time.Duration { return d } // time types are fine
