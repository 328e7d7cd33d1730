package main

import (
	"slices"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted by
// nearest rank: the smallest sample with at least p% of the samples at or
// below it. It returns 0 for an empty slice.
func percentile[T int64 | uint32](sorted []T, p float64) T {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(float64(n)*p/100 + 0.999999999) // ceil, tolerant of p*n rounding
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// minTailSamples is how many samples a p99 needs: ten beyond the
// percentile itself.
const minTailSamples = 1000

// median returns the middle value of vals (mean of the middle two for an
// even count) without reordering vals.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the "exclusive" method), so that
// -compare computes spreads the way the acceptance driver does. Fewer than
// two values have no spread: all three cut points are the value itself.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vals[0], vals[0], vals[0]
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return 1
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

// verdict judges a candidate's values against a baseline's for one metric.
// worse is the share of the baseline median by which the candidate median
// is worse (negative when it is better). Where either side's own
// run-to-run spread is wider than the bound, a difference of that size
// cannot be told from noise and the verdict is "unresolved", never "ok".
func verdict(base, cand []float64, better string, bound float64) (v string, worse, widest float64) {
	mb, mc := median(base), median(cand)
	switch {
	case mb == 0 && mc == 0:
		worse = 0
	case mb == 0:
		worse = 1
	default:
		worse = (mc - mb) / mb
		if mb < 0 {
			worse = -worse
		}
	}
	if better == "higher" {
		worse = -worse
	}
	widest = max(spread(base), spread(cand))
	switch {
	case widest > bound:
		return "unresolved", worse, widest
	case worse > bound:
		return "regression", worse, widest
	}
	return "ok", worse, widest
}
