package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile read off fewer samples is one outlier, not a percentile.
const minTail = 10

// tailQuantile returns the highest of the standard tail quantiles that
// still has at least minTail of n samples beyond it, or 0.5 when even the
// 90th percentile would rest on fewer. Beyond the nearest-rank quantile
// 1-1/d lie n/d samples (integer division).
func tailQuantile(n int) float64 {
	best := 0.5
	for _, t := range []struct {
		d int
		q float64
	}{{10, 0.9}, {100, 0.99}, {1000, 0.999}, {10000, 0.9999}} {
		if n/t.d >= minTail {
			best = t.q
		}
	}
	return best
}

// quantileSorted is the nearest-rank quantile of an ascending slice.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// percentiles sorts xs in place and returns the median and the quantile q,
// refusing q when fewer than minTail samples lie beyond it.
func percentiles(xs []float64, q float64) (p50, pq float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	if tailQuantile(len(xs)) < q {
		return 0, 0, fmt.Errorf("%d samples cannot support quantile %v", len(xs), q)
	}
	sort.Float64s(xs)
	return quantileSorted(xs, 0.5), quantileSorted(xs, q), nil
}

// median returns the median of xs (mean of the middle pair for even
// lengths) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
