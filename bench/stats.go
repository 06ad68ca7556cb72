package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks. sorted must be ascending and non-empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// summary is one end-to-end metric as the result file reports it: the median
// across trials, with the quartiles and the trial count beside it.
type summary struct {
	Value float64 `json:"median"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(vals []float64) summary {
	if len(vals) == 0 {
		return summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{Value: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// resolution is the width of the band the run pins its median to, as a share
// of the median: two standard errors of a median, taken from the trial
// quartiles (se = 1.2533 sigma / sqrt n, sigma = IQR / 1.349).
func (s summary) resolution() float64 {
	if s.N == 0 || s.Value == 0 {
		return math.Inf(1)
	}
	return 2 * 0.929 * (s.Q3 - s.Q1) / math.Sqrt(float64(s.N)) / math.Abs(s.Value)
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}
