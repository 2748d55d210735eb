package stats

import (
	"fmt"
	"math"
	"sort"
)

// KSResult reports the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the K-S statistic: the maximum absolute difference between the
	// two empirical distribution functions.
	D float64
	// Critical is the rejection threshold D_{m,n,alpha} at the requested
	// significance level.
	Critical float64
	// PValue is the asymptotic probability of observing a statistic at
	// least as large as D under the null hypothesis that both samples were
	// drawn from the same population.
	PValue float64
	// Reject reports whether the null hypothesis is rejected at the
	// requested significance level (D > Critical).
	Reject bool
	// M and N are the two sample sizes.
	M, N int
}

// KSTest runs the two-sample Kolmogorov–Smirnov test on reference sample
// ref (size m) and monitored sample mon (size n) at significance level
// alpha (e.g. 0.01 for the paper's 99% confidence).
//
// The null hypothesis H0 is that both samples come from the same
// population. H0 is rejected when D_{m,n} > c(alpha)*sqrt((m+n)/(m*n)),
// where c is the inverse of the Kolmogorov distribution.
func KSTest(ref, mon []float64, alpha float64) (KSResult, error) {
	if len(ref) == 0 || len(mon) == 0 {
		return KSResult{}, fmt.Errorf("stats: K-S test requires non-empty samples (m=%d, n=%d)", len(ref), len(mon))
	}
	if alpha <= 0 || alpha >= 1 {
		return KSResult{}, fmt.Errorf("stats: K-S significance level must be in (0,1), got %g", alpha)
	}
	d := KSStatistic(ref, mon)
	m := float64(len(ref))
	n := float64(len(mon))
	en := math.Sqrt(m * n / (m + n))
	crit := KolmogorovInverse(1-alpha) / en
	p := KolmogorovSurvival(d * en)
	return KSResult{
		D:        d,
		Critical: crit,
		PValue:   p,
		Reject:   d > crit,
		M:        len(ref),
		N:        len(mon),
	}, nil
}

// KSRejectStatSorted is the allocation-light copy-and-sort K-S test:
// refSorted must already be sorted ascending; mon is copied into scratch
// (which must have len >= len(mon)) and sorted there. It returns the K-S
// statistic D and the critical value it is compared to (H0, same
// population, is rejected when d > crit). cAlpha is
// KolmogorovInverse(1-alpha), computed once by the caller. It is the
// reference the presorted kernel is tested against.
func KSRejectStatSorted(refSorted, mon, scratch []float64, cAlpha float64) (d, crit float64) {
	n := copy(scratch, mon)
	s := scratch[:n]
	sort.Float64s(s)
	return KSRejectStatPresorted(refSorted, s, cAlpha)
}

// KSRejectStatPresorted is the zero-copy K-S decision kernel: both
// samples must already be sorted ascending. The monitor's sort-once
// decision path sorts each monitored rank group a single time per window
// (incrementally where the window slides) and then re-tests it unchanged
// against every training mode and candidate region. Each test then counts
// the trained reference (m) by binary search at the group's (n) values,
// O(n log m) rather than a merge over both (see ksStatSorted). It returns
// D and the critical value (rejection is d > crit); the caller thresholds
// and may record both, so recording provenance can never change a
// decision. Sorting is a pure permutation, so for equal multisets the
// (d, crit) pair is bit-identical to KSRejectStatSorted's.
func KSRejectStatPresorted(refSorted, monSorted []float64, cAlpha float64) (d, crit float64) {
	d = ksStatSorted(refSorted, monSorted)
	m := float64(len(refSorted))
	n := float64(len(monSorted))
	crit = cAlpha * math.Sqrt((m+n)/(m*n))
	return d, crit
}

// ksStatSorted computes the two-sample K-S statistic over two already
// sorted samples by counting the longer one at the shorter one's values
// (ksStatSearch). D is symmetric and fl(a-b) = -fl(b-a), so which sample
// is counted changes no bit.
func ksStatSorted(as, bs []float64) float64 {
	if len(as) < len(bs) {
		as, bs = bs, as
	}
	return ksStatSearch(as, bs)
}

// ksStatSearch is the K-S kernel for a sorted sample as (size m) against
// a sorted sample bs (size n <= m), in O(n log(m/n) + n): it walks the
// distinct values of bs and counts as by galloping search, resumed from
// the previous count.
//
// Between two consecutive distinct values v < w of bs, F_b is constant
// at j/n while F_a only rises, and for a fixed j fl(i/m - j/n) is
// monotone in i, so |fl(i/m - j/n)| over that gap peaks at one of its
// two ends: i = #{as <= v} (at x = v) or i = #{as < w} (just below w).
// Both are (i, j) pairs a merge pass over both samples visits (the
// tests' reference, ksStatMerge), and every other pair it visits lies
// between them, so the maximum is the merge's D bit for bit.
// The pairs past the end of either sample, which the merge never
// visits, are dominated by the last pair it does visit.
func ksStatSearch(as, bs []float64) float64 {
	var d float64
	m := float64(len(as))
	n := float64(len(bs))
	i := 0
	for j := 0; j < len(bs); {
		v := bs[j]
		// End of the gap below v: the reference strictly below v.
		i = gallopGE(as, i, v)
		if diff := math.Abs(float64(i)/m - float64(j)/n); diff > d {
			d = diff
		}
		for j < len(bs) && bs[j] <= v {
			j++
		}
		// Start of the gap above v: the reference at or below v.
		i = gallopGT(as, i, v)
		if diff := math.Abs(float64(i)/m - float64(j)/n); diff > d {
			d = diff
		}
	}
	return d
}

// gallopGE returns the first index k >= lo with s[k] >= v (len(s) when
// there is none), s sorted ascending: exponential probes from lo, then a
// binary search inside the bracket they find.
func gallopGE(s []float64, lo int, v float64) int {
	hi, step := lo, 1
	for hi < len(s) && s[hi] < v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopGT is gallopGE for the first k >= lo with s[k] > v.
func gallopGT(s []float64, lo int, v float64) int {
	hi, step := lo, 1
	for hi < len(s) && s[hi] <= v {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// KSStatistic computes the two-sample K-S statistic
// D = max_x |F_ref(x) - F_mon(x)| over the two sorted samples, counting
// the longer one by binary search (ksStatSorted). It copies both inputs
// into one backing slice (a single allocation) before sorting, leaving
// the arguments unmodified.
func KSStatistic(a, b []float64) float64 {
	buf := make([]float64, len(a)+len(b))
	as := buf[:len(a):len(a)]
	bs := buf[len(a):]
	copy(as, a)
	copy(bs, b)
	sort.Float64s(as)
	sort.Float64s(bs)
	return ksStatSorted(as, bs)
}

// KSStatisticPresorted is KSStatistic on samples already sorted
// ascending: no copies, no allocations. Training's detectable-shift probe
// uses it on the (sorted) reference distributions directly.
func KSStatisticPresorted(aSorted, bSorted []float64) float64 {
	return ksStatSorted(aSorted, bSorted)
}

// KolmogorovSurvival returns Q(x) = P(K > x) for the Kolmogorov
// distribution, using the classic alternating series
// Q(x) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 x^2).
func KolmogorovSurvival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	if x > 5 {
		return 0 // series underflows; survival is ~1e-22 already
	}
	var sum float64
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := math.Exp(-2 * float64(k) * float64(k) * x * x)
		sum += sign * term
		sign = -sign
		if term < 1e-12 {
			break
		}
	}
	q := 2 * sum
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// KolmogorovCDF returns P(K <= x) for the Kolmogorov distribution.
func KolmogorovCDF(x float64) float64 { return 1 - KolmogorovSurvival(x) }

// KolmogorovInverse returns c such that KolmogorovCDF(c) = p, i.e. the
// critical value c(alpha) for confidence level p = 1-alpha. Computed by
// bisection; the CDF is strictly increasing on (0, inf).
func KolmogorovInverse(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, 5.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if KolmogorovCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12 {
			break
		}
	}
	return (lo + hi) / 2
}
