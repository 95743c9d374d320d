package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"repro/internal/obs"
)

// quantile is the nearest-rank p-quantile (0 < p ≤ 1) of xs; 0 when empty.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder are the percentiles a tail is read at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tail returns the highest ladder percentile with at least ten samples
// beyond it, its value, and a label saying which it was and over how many.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	p := tailLadder[0]
	for _, q := range tailLadder {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			p = q
		}
	}
	return quantile(xs, p), fmt.Sprintf("p%g of %d samples", p*100, n)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func msList(ds []int64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// family sums one metric family over registries: counter/gauge values,
// and histogram counts and sums.
type family struct{ value, count, sum float64 }

func readFamily(regs []*obs.Registry, name string) family {
	var f family
	for _, reg := range regs {
		for _, fam := range reg.Snapshot() {
			if fam.Name != name {
				continue
			}
			for _, s := range fam.Samples {
				f.value += s.Value
				f.count += float64(s.Count)
				f.sum += s.Sum
			}
		}
	}
	return f
}

func (f family) minus(g family) family {
	return family{f.value - g.value, f.count - g.count, f.sum - g.sum}
}
