package stats

import "sort"

// insertionSortMax is the length up to which Sort uses a branch-light
// insertion sort instead of sort.Float64s. K-S rank groups are typically
// a few dozen values, where insertion sort beats the general-purpose
// sorter's dispatch and pivot machinery.
const insertionSortMax = 48

// Sort sorts xs ascending in place. For the short slices of the decision
// hot path (rank groups, peak lists) it runs a plain insertion sort;
// longer inputs fall through to sort.Float64s. Both produce the same
// ascending permutation for totally ordered (NaN-free) inputs, so the
// choice of algorithm can never change a downstream K-S statistic.
func Sort(xs []float64) {
	if len(xs) > insertionSortMax {
		sort.Float64s(xs)
		return
	}
	insertionSort(xs)
}

// insertionSort sorts xs ascending in place in O(len(xs) + inversions):
// the short-slice path of Sort, and the repair pass that puts an almost
// sorted slice back in order.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for j > 0 && x < xs[j-1] {
			xs[j] = xs[j-1]
			j--
		}
		xs[j] = x
	}
}

// SlideSorted advances a sorted sliding-window sample by one step in
// place: it removes one occurrence of old and inserts next, keeping g
// sorted ascending. It runs in O(len(g)) with zero allocations — the
// monitor's incremental group maintenance when the window slides by one
// hop. It returns false (leaving g in an unspecified but same-multiset
// state) when old is not present, e.g. because a non-finite value
// defeated the binary search; callers must then rebuild the window from
// scratch.
func SlideSorted(g []float64, old, next float64) bool {
	if next != next {
		// NaN breaks the total order every comparison below relies on;
		// make the caller rebuild rather than silently corrupt the window.
		return false
	}
	if old == next {
		// The leaving and entering values are equal: the sorted window is
		// unchanged as a multiset, and any occurrence of the value stands
		// in for any other.
		i := sort.SearchFloat64s(g, old)
		return i < len(g) && g[i] == old
	}
	i := sort.SearchFloat64s(g, old)
	if i >= len(g) || g[i] != old {
		return false
	}
	if next > old {
		// Shift the gap right until the entering value fits.
		for i+1 < len(g) && g[i+1] < next {
			g[i] = g[i+1]
			i++
		}
	} else {
		for i > 0 && g[i-1] > next {
			g[i] = g[i-1]
			i--
		}
	}
	g[i] = next
	return true
}

// MedianSorted returns the median of a sample already sorted ascending,
// or 0 for an empty slice. It computes the identical expression to
// MedianScratch (which sorts a scratch copy first), so the two agree bit
// for bit on equal multisets.
func MedianSorted(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}
