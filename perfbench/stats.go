package main

import (
	"math"
	"sort"
	"time"
)

// dist summarises a latency sample.
type dist struct {
	n         int
	p50, p99  time.Duration
	beyondP99 int // samples strictly above p99
}

// summarize sorts a copy of xs and returns its nearest-rank median and p99.
func summarize(xs []time.Duration) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := dist{n: len(s), p50: rank(s, 0.50), p99: rank(s, 0.99)}
	for _, x := range s {
		if x > d.p99 {
			d.beyondP99++
		}
	}
	return d
}

// rank returns the nearest-rank q-quantile of sorted s.
func rank(s []time.Duration, q float64) time.Duration {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs (nearest rank).
func median(xs []time.Duration) time.Duration { return summarize(xs).p50 }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianFloat returns the median of xs (nearest rank).
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(math.Ceil(0.5*float64(len(s))))-1]
}
