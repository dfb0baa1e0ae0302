package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks, computed from the raw samples (0 when xs is
// empty). xs is not modified.
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

// beyond counts samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// windows is how many consecutive, equal runs of samples the windowed
// statistics split a phase into.
const windows = 10

// windowed returns the median, over windows consecutive runs of xs (in
// time order), of each run's q-quantile. A burst of interference moves
// the statistic of one window, not the reported figure.
func windowed(xs []float64, q float64) float64 {
	w := len(xs) / windows
	if w < 1 {
		return quantile(xs, q)
	}
	var qs []float64
	for i := 0; i < windows; i++ {
		hi := (i + 1) * w
		if i == windows-1 {
			hi = len(xs)
		}
		qs = append(qs, quantile(xs[i*w:hi], q))
	}
	return median(qs)
}
