package mealibrt

// The admission rows cover test files too.
func flightGate() {} // want `one-admission-rule: flightGate`

func pipelined(c Config) bool {
	return c.WavePipeline // want `one-admission-rule: mealibrt\.Config\.WavePipeline`
}
