package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// beyond reports how many of n samples lie beyond the p-th percentile
// (0 < p < 100), counting by rank: floor(n·(100-p)/100), with a tolerance
// for the binary rounding of p.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-6))
}

// reportable reports whether the p-th percentile of n samples has at least
// minBeyond samples beyond it.
func reportable(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// percentile returns the p-th percentile (0..100) of sorted values by
// linear interpolation between closest ranks. It returns NaN for no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), the
// rule steadiness is judged by. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(values)
	if ld < 2 {
		return 0, 0, 0, false
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], true
}

// median returns the middle of values (the mean of the two middle values
// for an even count).
func median(values []float64) float64 {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	return percentile(data, 50)
}

// samples collects durations for one timing.
type samples []time.Duration

// ms returns the samples in milliseconds, sorted.
func (s samples) ms() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
