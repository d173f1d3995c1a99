package main

import (
	"math"
	"sort"
)

// tailLadder lists the tail percentiles a timing may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least ten samples beyond it among n samples (0 when n < 20, which leaves
// not even the median ten samples to spare).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile of xs by the nearest-rank rule
// (xs need not be sorted; it is not modified). It is 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the middle value (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartiles with the same method as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so the
// steadiness report matches the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// timing summarizes one latency distribution by the median and the highest
// percentile with at least ten samples beyond it.
type timing struct {
	N      int
	P50    float64
	TailP  float64
	TailMS float64
}

func summarize(ms []float64) timing {
	tp := tailPercentile(len(ms))
	return timing{N: len(ms), P50: percentile(ms, 50), TailP: tp, TailMS: percentile(ms, tp)}
}
