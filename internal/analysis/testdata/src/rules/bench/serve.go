// Package main is analyzer test data: the benchmark still sets the ignored
// WavePipeline field and sizes its own clients.
package main

import (
	"runtime"

	"mealib/internal/mealibrt"
)

func main() {
	cfg := mealibrt.Config{WavePipeline: true}
	_ = cfg
	go func() {}()
	_ = runtime.GOMAXPROCS(0)
}
