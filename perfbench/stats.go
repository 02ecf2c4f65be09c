package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// tailCandidates are the percentiles a timing may be reported at, lowest
// first.
var tailCandidates = []float64{50, 90, 95, 99, 99.9, 99.99}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten of n samples beyond it, or 0 when even the median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if beyond(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// beyond is the number of samples of n that lie above the p-th percentile
// under the nearest-rank rule.
func beyond(p float64, n int) int {
	return n - rank(p, n)
}

// rank is the 1-based nearest-rank position of the p-th percentile.
func rank(p float64, n int) int {
	// The epsilon keeps float error in p/100*n from rounding an exact rank
	// up (99.9% of 10000 must be rank 9990, not 9991).
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of samples, sorting
// them in place. ok is false when fewer than ten samples lie beyond it.
func percentile(samples []int64, p float64) (v int64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rank(p, len(samples))-1], beyond(p, len(samples)) >= 10
}

// interquartileMean returns the mean of the middle half of xs: unlike the
// median it moves smoothly when the samples mix two modes in a proportion
// that varies from run to run, and unlike the mean it ignores the stalls
// in either tail.
func interquartileMean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range mid {
		sum += float64(v)
	}
	return sum / float64(len(mid))
}

// quantile returns the nearest-rank q-th percentile of xs, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// median returns the median of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkName reports whether a metric or workload name, and its unit when
// given, fits the result format: a name starts with a letter or digit and
// has at most 64 letters, digits, '_', '.' and '-'; a unit has at most 16
// letters, digits, '_', '/', '%', '.' and '-'.
func checkName(name, unit string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("name %q: want 1-64 of [A-Za-z0-9_.-], starting with a letter or digit", name)
	}
	if unit != "" && !unitRE.MatchString(unit) {
		return fmt.Errorf("unit %q of %s: want 1-16 of [A-Za-z0-9_/%%.-]", unit, name)
	}
	return nil
}

// histPercentile estimates the p-th percentile of a power-of-two histogram
// (bucket i holds values of bit length i) as the upper bound of the bucket
// holding the nearest-rank sample.
func histPercentile(buckets []int64, p float64) float64 {
	var n int64
	for _, c := range buckets {
		n += c
	}
	if n == 0 {
		return 0
	}
	r := int64(rank(p, int(n)))
	var seen int64
	for i, c := range buckets {
		seen += c
		if seen >= r {
			return float64(uint64(1)<<uint(i)) - 1
		}
	}
	return 0
}
