package main

import (
	"math"
	"sort"
)

// summary is how every metric is reported: the sample count, the median and
// quartiles, and the highest percentile the sample supports.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// TailP is the highest percentile of tailLadder with at least ten samples
	// beyond it, 0 when the sample is too small to support any; Tail is the
	// value at that percentile.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// tailLadder lists the percentiles a tail may be reported at.
var tailLadder = []float64{75, 90, 95, 99, 99.9}

// quantile returns the p-quantile (0 < p < 1) of sorted by the "exclusive"
// method of Python's statistics.quantiles: the value at rank p*(n+1),
// interpolated, clamped to the sample's ends.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	rank := p * float64(n+1)
	lo := int(math.Floor(rank))
	if lo < 1 {
		return sorted[0]
	}
	if lo >= n {
		return sorted[n-1]
	}
	frac := rank - float64(lo)
	return sorted[lo-1] + frac*(sorted[lo]-sorted[lo-1])
}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten of n samples beyond it, or 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // the tolerance absorbs 100-99.9 not being exact
			best = p
		}
	}
	return best
}

// summarize reduces samples to a summary. It does not modify samples.
func summarize(unit string, samples []float64) summary {
	s := summary{Unit: unit, N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	if p := tailPercentile(len(sorted)); p > 0 {
		s.TailP = p
		s.Tail = quantile(sorted, p/100)
	}
	return s
}

// single wraps one exact value (a count, a ratio) as a summary.
func single(unit string, v float64) summary {
	return summary{Unit: unit, N: 1, Median: v, Q1: v, Q3: v}
}

// spread is the interquartile range as a share of the median, the
// run-to-run noise measure the bounds are judged against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func median(samples []float64) float64 { return summarize("", samples).Median }
