// Package span is analyzer test data: the strided extent lives here.
package span

func Extend(lo, hi int) int { return hi - lo }
