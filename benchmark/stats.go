package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is not
// modified. An empty input yields NaN so a missing sample can never pass
// for a fast one.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medianCount is the median of whole-number counts that stays a whole
// number: the lower of the two middle values when there is no single one.
func medianCount(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// windowMedian is the latency statistic the end-to-end metrics use: the
// q-quantile is taken inside each window and the median of those
// per-window values is reported, so one slow window moves a p99 less than
// it would in a pooled sample. Empty windows are skipped.
func windowMedian(windows [][]float64, q float64) float64 {
	per := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) > 0 {
			per = append(per, quantile(w, q))
		}
	}
	return median(per)
}

// spreadShare is the driver's steadiness measure: the distance between the
// first and third quartile as a share of the median.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / math.Abs(m)
}
