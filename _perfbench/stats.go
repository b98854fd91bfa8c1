package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of xs.
func percentile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailQuantile is the highest percentile, at most 99, that leaves at least
// ten samples beyond it: 99 from 1000 samples on, lower below that.
func tailQuantile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	if n <= 10 {
		return 50
	}
	return math.Floor(100 * (1 - 10/float64(n)))
}

// median of a set of durations.
func median(xs []time.Duration) time.Duration { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeN calls f(i) for i in [0, n) and returns the mean nanoseconds per
// call. Probes do a fixed amount of work, so a span around one measures
// the layer's time for that work and moves when the layer gets faster.
func timeN(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
