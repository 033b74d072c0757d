package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the percentile is one or two outliers, not a statistic.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of
// samples. It refuses when fewer than minBeyond samples lie beyond the
// rank, so a p99 needs at least 1000 samples and a p95 at least 200.
// Failed operations enter samples as +Inf: they miss every limit.
func percentile(samples []float64, q float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, n-rank, n)
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median of xs (mean of the middle pair for even counts); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean of positive xs; 0 when empty or any value is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// segments measures the timed phase piecewise: the phase is cut into
// consecutive segments of size completed ops (a tail shorter than a
// segment is dropped); each segment yields a rate, its successful ops
// over its wall time, and a CPU cost, the process CPU time it used per
// op. The medians are reported, so a few seconds' slowdown of a shared
// host moves one segment rather than the run's figures.
func (t opTimes) segments(start time.Time, startCPU time.Duration, size int) (rate, cpuMSPerOp float64) {
	idx := make([]int, len(t.done))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return t.done[idx[a]].Before(t.done[idx[b]]) })
	var rates, cpus []float64
	prev, prevCPU, ok := start, startCPU, 0
	for n, i := range idx {
		if !math.IsInf(t.lat[i], 1) {
			ok++
		}
		if (n+1)%size == 0 {
			rates = append(rates, float64(ok)/t.done[i].Sub(prev).Seconds())
			cpus = append(cpus, ms(t.cpu[i]-prevCPU)/float64(size))
			prev, prevCPU, ok = t.done[i], t.cpu[i], 0
		}
	}
	return median(rates), median(cpus)
}
