package main

import (
	"math"

	"chronos/internal/stats"
)

// minBeyond is the percentile rule's floor: a percentile is reported
// only when at least this many samples lie beyond it, so a tail figure
// is never one unlucky sample.
const minBeyond = 10

// ladder lists the percentiles the rule may report, ascending.
var ladder = []float64{50, 90, 99, 99.9}

// beyond counts the samples of n that lie strictly beyond percentile p:
// stats.Percentile interpolates between the order statistics around rank
// p/100·(n−1), and every sample above the upper one is beyond it.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	// The epsilon keeps the rank from rounding up past an exact order
	// statistic (0.999 has no exact binary form).
	upper := int(math.Ceil(p/100*float64(n-1) - 1e-9))
	return n - 1 - upper
}

// qualifies reports whether percentile p has at least minBeyond samples
// beyond it out of n.
func qualifies(p float64, n int) bool { return beyond(p, n) >= minBeyond }

// tailPercentile is the highest percentile on the ladder that
// qualifies for n samples; ok is false when not even the median does.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		if qualifies(ladder[i], n) {
			return ladder[i], true
		}
	}
	return 0, false
}

// percentile is stats.Percentile, reading 0 for no samples so that a
// metric a workload does not have stays a number.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

// median is percentile 50.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is stats.Mean, reading 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// summary renders one latency series for the report: median, p90, the
// rule's tail percentile and the sample count, so a reader can tell
// which figures rest on enough samples.
type summary struct {
	N       int     `json:"n"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P90OK   bool    `json:"p90_qualified"`
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), P50: median(xs), P90: percentile(xs, 90), P90OK: qualifies(90, len(xs))}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailPct, s.Tail = p, percentile(xs, p)
	}
	return s
}
