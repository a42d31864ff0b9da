package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of xs, the mean of the two middle values
// when there are an even number, and 0 when there are none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile of xs: the smallest value
// with at least a share q of the samples at or below it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// segments cuts xs, in order, into n parts whose lengths differ by at most one.
func segments(xs []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n : (i+1)*len(xs)/n]
	}
	return out
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns, which
// is what the driver judges run-to-run spread by. Python needs two values; one
// value is here its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// best reduces one run's samples of a metric to the value reported: the
// smallest, or the largest when higher is better. What disturbs a run on a
// shared machine is one-sided — a neighbour takes cycles or cache for seconds or
// minutes, nothing ever gives them — so the least disturbed sample says what the
// program costs, and the middle of the samples says how busy the neighbours
// were. The repository's micro-benchmark gate (BENCH_BASELINE.json, min ns/op)
// reduces its repetitions the same way.
func best(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	if higher {
		return slices.Max(xs)
	}
	return slices.Min(xs)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// failedMicros is the latency a failed operation is given, so that it counts
// as missing every percentile instead of being left out of it.
const failedMicros = 5e6

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
