package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted values,
// interpolating linearly between the two nearest order statistics, so a
// latency percentile keeps every digit of the samples it lies between.
// It returns 0 for no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns values sorted ascending, leaving values untouched.
func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// median returns the median of values (0 for none).
func median(values []float64) float64 {
	return percentile(sortedCopy(values), 50)
}

// mean returns the arithmetic mean of values (0 for none).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// quartiles returns the first, second and third quartile of values exactly
// as Python's statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so the spread compare prints is the spread an outside
// check computes from the same runs. It needs at least one value.
func quartiles(values []float64) [3]float64 {
	data := sortedCopy(values)
	ld := len(data)
	if ld == 1 {
		return [3]float64{data[0], data[0], data[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (data[j-1]*(n-delta) + data[j]*delta) / n
	}
	return q
}

// interval is a half-open time span in nanoseconds.
type interval struct{ start, end int64 }

// coveredWithin returns how much of [start, end) the union of spans covers.
// Overlapping spans are counted once and the parts outside the window are
// clipped, so concurrent children never make a parent's self time negative.
func coveredWithin(start, end int64, spans []interval) int64 {
	clipped := make([]interval, 0, len(spans))
	for _, s := range spans {
		s.start, s.end = max(s.start, start), min(s.end, end)
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	cur := interval{start: -1, end: -1}
	for _, s := range clipped {
		if s.start > cur.end {
			covered += cur.end - cur.start
			cur = s
			continue
		}
		cur.end = max(cur.end, s.end)
	}
	return covered + cur.end - cur.start
}
