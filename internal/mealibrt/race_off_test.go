//go:build !race

package mealibrt

const raceEnabled = false
