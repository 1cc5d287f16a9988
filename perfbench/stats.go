package main

import (
	"math"
	"sort"
)

// minTailSamples is the smallest sample count from which a p90 is reported:
// at 100 samples, ten lie beyond the 90th percentile.
const minTailSamples = 100

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" rule), or 0 for an empty slice. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// p90 returns the 90th percentile and true, or false when fewer than
// minTailSamples samples exist.
func p90(xs []float64) (float64, bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	return quantile(xs, 0.9), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
