package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile (0 < p < 1) of sorted by the exclusive
// method Python's statistics.quantiles uses (position p·(n+1), linear
// interpolation between the neighbouring order statistics), clamped to the
// sample range, so the quartiles printed here are the ones the acceptance
// check computes. sorted must be ascending and non-empty.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := p*float64(n+1) - 1 // 0-based fractional index
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is the reported form of one timing: sample count, median and the
// quartiles around it.
type summary struct {
	N              int
	Median, Q1, Q3 float64
}

// relSpread is the inter-quartile distance as a share of the median: the
// number the acceptance check compares with a metric's bound.
func (s summary) relSpread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// summarize sorts a copy of values and reports it; the zero summary stands
// for an empty sample.
func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := sortedCopy(values)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

func median(values []float64) float64 { return summarize(values).Median }

// tailLadder are the percentiles a tail latency may be reported at.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailPercentile picks the highest ladder percentile that leaves at least
// ten samples beyond it; below twenty samples only the median qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 { // 100 × (1 − 0.9) is 9.999… in floating point
			return p
		}
	}
	return 0.50
}

// percentile is quantile over unsorted values; 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	return quantile(sortedCopy(values), p)
}
