package accel

type Report struct{ Nodes int } // want `one-price: Report`

func merge(a, b int) int { return a + b } // want `one-price: merge`
