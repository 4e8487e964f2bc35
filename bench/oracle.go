package main

import "math"

// spotOracle is the paper's Algorithm 1 for one destination: the mean of the
// round's congestion windows, smoothed by an EWMA whose first sample seeds
// it, rounded to whole segments and clamped. It shares no code with
// internal/core, so agreeing with it is evidence, not tautology.
type spotOracle struct {
	ewma   float64
	seeded bool
}

const (
	oracleAlpha = 0.75
	oracleCMin  = 10
	oracleCMax  = 100
)

// next folds one round's cwnds in and returns the initcwnd to program.
func (o *spotOracle) next(cwnds []int) int {
	sum := 0.0
	for _, c := range cwnds {
		sum += float64(c)
	}
	mean := sum / float64(len(cwnds))
	if o.seeded {
		o.ewma = oracleAlpha*o.ewma + (1-oracleAlpha)*mean
	} else {
		o.ewma, o.seeded = mean, true
	}
	return min(max(int(math.Round(o.ewma)), oracleCMin), oracleCMax)
}
