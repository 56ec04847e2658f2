package main

import (
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// latencyHist counts playout latencies by exact value in nanoseconds.
// Virtual-time latencies take few distinct values, so the map stays
// small however many blocks play.
type latencyHist map[int64]uint64

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func (h latencyHist) percentile(p float64) time.Duration {
	keys := make([]int64, 0, len(h))
	var n uint64
	for k, c := range h {
		keys = append(keys, k)
		n += c
	}
	if n == 0 {
		return 0
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	rank := uint64(p / 100 * float64(n))
	if float64(rank) < p/100*float64(n) {
		rank++
	}
	var cum uint64
	for _, k := range keys {
		cum += h[k]
		if cum >= rank {
			return time.Duration(k)
		}
	}
	return time.Duration(keys[len(keys)-1])
}

// meanMS returns the mean latency in milliseconds.
func (h latencyHist) meanMS() float64 {
	var sum, n float64
	for k, c := range h {
		sum += float64(k) * float64(c)
		n += float64(c)
	}
	return ratio(sum, n) / float64(time.Millisecond)
}
