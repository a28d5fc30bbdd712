package main

import (
	"errors"
	"math"
	"testing"

	"nvwa/internal/accel"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100, 99, ..., 1
	}
	v, pct, beyond := tail(xs)
	if v != 90 || beyond != 10 || pct != 90 {
		t.Fatalf("tail of 1..100 = (%v, p%v, %d beyond), want (90, p90, 10)", v, pct, beyond)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != 10 {
		t.Fatalf("%d samples above the tail value, want 10", above)
	}

	v, pct, beyond = tail([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11})
	if v != 1 || beyond != 10 || math.Abs(pct-100.0/11) > 1e-12 {
		t.Fatalf("tail of 11 samples = (%v, p%v, %d beyond), want (1, p%v, 10)", v, pct, beyond, 100.0/11)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200, 199, ..., 1
	}
	if got := percentile(xs, 90); got != 180 {
		t.Fatalf("p90 of 1..200 = %v, want 180", got)
	}
	if got := percentile([]float64{5, 1, 3}, 90); got != 5 {
		t.Fatalf("p90 of three samples = %v, want the largest", got)
	}
	if got := percentile([]float64{5, 1, 3}, 0); got != 1 {
		t.Fatalf("p0 = %v, want the smallest", got)
	}
}

func TestTailWithTooFewSamplesReportsMax(t *testing.T) {
	v, pct, beyond := tail([]float64{4, 9, 2, 7, 1, 3, 8, 5, 6, 10})
	if v != 10 || pct != 100 || beyond != 0 {
		t.Fatalf("tail of 10 samples = (%v, p%v, %d beyond), want (10, p100, 0)", v, pct, beyond)
	}
}

func TestReadsPerSecUsesFastestSample(t *testing.T) {
	// One slow outlier (a busy neighbour) moves neither the fastest
	// nor the median sample.
	secs := []float64{0.5, 0.2, 0.25, 10, 0.3}
	if got, want := readsPerSec(1000, secs), 1000/0.2; math.Abs(got-want) > 1e-9 {
		t.Fatalf("readsPerSec = %v, want %v (reads / fastest sample)", got, want)
	}
	if got, want := medianReadsPerSec(1000, secs), 1000/0.3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("medianReadsPerSec = %v, want %v (reads / median sample)", got, want)
	}
	if got, want := medianReadsPerSec(1000, []float64{0.2, 0.4}), 1000/0.3; math.Abs(got-want) > 1e-9 {
		t.Fatalf("medianReadsPerSec with even count = %v, want %v", got, want)
	}
	if got := readsPerSec(1000, nil); !math.IsNaN(got) {
		t.Fatalf("readsPerSec of no samples = %v, want NaN", got)
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestFailedFracCountsFailedAndRefused(t *testing.T) {
	cases := []struct {
		attempted, failed, refused int
		want                       float64
	}{
		{10, 0, 0, 0},
		{10, 2, 0, 0.2},
		{10, 0, 3, 0.3},
		{10, 2, 3, 0.5},
		{4, 2, 2, 1},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := failedFrac(c.attempted, c.failed, c.refused); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("failedFrac(%d, %d, %d) = %v, want %v", c.attempted, c.failed, c.refused, got, c.want)
		}
	}
}

func TestTallyCountsFailedAndRefusedAgainstAttempted(t *testing.T) {
	good := &reportOut{report: &accel.Report{Reads: 1}}
	ref := reference{digest: digest(good.report)}
	tl := newTally()
	for i := 0; i < 3; i++ {
		tl.check(ref, good)
	}
	tl.check(ref, &reportOut{report: &accel.Report{Reads: 2}}) // wrong output
	tl.refuse(errors.New("watchdog"))                          // no output
	r := tl.result(ref, nil)
	if r.Attempted != 5 || r.Failed != 2 || r.Correct {
		t.Fatalf("result = %+v, want 5 attempted, 2 failed, not correct", r)
	}
	if got := failedFrac(tl.attempted, tl.failed, tl.refused); got != 0.4 {
		t.Fatalf("failed_frac = %v, want 0.4", got)
	}
}
