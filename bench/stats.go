package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of xs:
// the smallest sample such that at least p percent of all samples are ≤ it.
// It never interpolates, so the answer is always one of the samples and a
// percentile above the largest sample cannot occur. xs must be non-empty;
// it is not modified.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps p·n/100 from rounding up past an exact integer
	// (0.57·100 evaluates to 57.00000000000001).
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// usage reads the process's CPU time (user plus system) and its peak
// resident set size in MiB from getrusage; Linux reports Maxrss in KiB.
func usage() (cpu time.Duration, peakRSSMiB float64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024, nil
}
