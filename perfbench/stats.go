package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the percentiles a timing may be reported at, from
// the highest down. tail picks the highest one a sample supports.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// dist summarises a timing sample: its median, the highest percentile
// with at least minBeyond samples beyond it, and the sample count.
type dist struct {
	N      int
	Median float64
	TailP  float64 // 0 when no percentile is supported
	Tail   float64
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted))-1e-9)) - 1 // tolerate q·n rounding up
	return sorted[max(0, min(i, len(sorted)-1))]
}

// supports reports whether n samples leave minBeyond samples beyond the
// p-th percentile.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-1e-9
}

// summarize sorts a copy of xs and returns its dist.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d := dist{N: len(s), Median: math.NaN(), Tail: math.NaN()}
	if len(s) == 0 {
		return d
	}
	d.Median = quantile(s, 0.5)
	for _, p := range tailPercentiles {
		if supports(len(s), p) {
			d.TailP, d.Tail = p, quantile(s, p/100)
			break
		}
	}
	return d
}

// pct returns the p-th percentile of xs when the sample supports it
// (minBeyond samples beyond), and ok=false otherwise.
func pct(xs []float64, p float64) (v float64, ok bool) {
	if !supports(len(xs), p) {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p/100), true
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).Median }

// span is a half-open time interval [Start, End) in nanoseconds.
type span struct{ Start, End int64 }

// unionNanos returns the total length covered by spans, counting time
// covered by several overlapping spans once. It reorders spans.
func unionNanos(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, curS, curE int64
	open := false
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		if open && s.Start <= curE {
			curE = max(curE, s.End)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s.Start, s.End, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// selfNanos is a span's self time: its length minus the part of it that
// the union of its child spans covers (children are clipped to parent).
func selfNanos(parent span, children []span) int64 {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		c.Start, c.End = max(c.Start, parent.Start), min(c.End, parent.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	return parent.End - parent.Start - unionNanos(clipped)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// windowP99 splits xs (in arrival order) into consecutive windows of
// windowSize samples, takes each full window's p99, and returns their
// median and the number of windows. A single stall then moves one
// window's p99, not the reported value.
func windowP99(xs []float64, windowSize int) (float64, int) {
	var p99s []float64
	for i := 0; i+windowSize <= len(xs); i += windowSize {
		if v, ok := pct(xs[i:i+windowSize], 99); ok {
			p99s = append(p99s, v)
		}
	}
	return median(p99s), len(p99s)
}
