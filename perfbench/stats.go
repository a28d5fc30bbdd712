package main

import (
	"math"
	"slices"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail value.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p * float64(len(s)) / 100))
	return s[max(k, 1)-1]
}

// tail returns the highest-ranked sample that still has minBeyond
// samples above it, its percentile rank 100·(n−beyond)/n, and the
// number of samples beyond it. With too few samples for that rule it
// returns the maximum, rank 100 and beyond 0, so the caller can print
// that no percentile met the rule.
func tail(xs []float64) (value, pct float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	s := sorted(xs)
	if n <= minBeyond {
		return s[n-1], 100, 0
	}
	return s[n-1-minBeyond], 100 * float64(n-minBeyond) / float64(n), minBeyond
}

// readsPerSec is the north-star rate: reads simulated per host second
// in the fastest sample. Every sample does the same work, so a slower
// one measures how much a neighbour on the shared host took, not the
// program; the fastest of a run's samples is the one least disturbed.
func readsPerSec(reads int, sampleSeconds []float64) float64 {
	return float64(reads) / fastest(sampleSeconds)
}

// medianReadsPerSec is reads per host second in the median sample.
func medianReadsPerSec(reads int, sampleSeconds []float64) float64 {
	return float64(reads) / median(sampleSeconds)
}

// fastest returns the smallest of xs.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return slices.Min(xs)
}

// failedFrac is the share of attempted samples that did not produce a
// checked result: samples whose output failed a correctness check
// plus samples the system refused (an error instead of a Report).
func failedFrac(attempted, failed, refused int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed+refused) / float64(attempted)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
