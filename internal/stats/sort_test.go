package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestSortMatchesSortFloat64s checks that Sort produces the identical
// ascending permutation as the stdlib sorter across the size boundary
// between the insertion and general paths.
func TestSortMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 7, 16, insertionSortMax, insertionSortMax + 1, 200} {
		for trial := 0; trial < 20; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				// Coarse values force ties.
				xs[i] = math.Floor(rng.Float64() * 10)
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			Sort(xs)
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("n=%d trial=%d: Sort diverges from sort.Float64s at %d: %v vs %v", n, trial, i, xs, want)
				}
			}
		}
	}
}

// TestSlideSorted drives a sorted sliding window through random slides
// and checks it always matches a from-scratch sort of the same window.
func TestSlideSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	stream := make([]float64, 500)
	for i := range stream {
		stream[i] = math.Floor(rng.Float64() * 8) // heavy ties
	}
	g := append([]float64(nil), stream[:n]...)
	Sort(g)
	for w := 1; w+n <= len(stream); w++ {
		if !SlideSorted(g, stream[w-1], stream[w+n-1]) {
			t.Fatalf("slide %d: leaving value %g not found in window", w, stream[w-1])
		}
		want := append([]float64(nil), stream[w:w+n]...)
		sort.Float64s(want)
		for i := range g {
			if g[i] != want[i] {
				t.Fatalf("slide %d: window diverges at %d: %v vs %v", w, i, g, want)
			}
		}
	}
}

// TestSlideSortedRejectsBadInputs pins the rebuild-signalling contract:
// a missing leaving value or a NaN entering value returns false.
func TestSlideSortedRejectsBadInputs(t *testing.T) {
	g := []float64{1, 2, 3, 4}
	if SlideSorted(g, 2.5, 9) {
		t.Error("SlideSorted accepted a leaving value not in the window")
	}
	g = []float64{1, 2, 3, 4}
	if SlideSorted(g, 2, math.NaN()) {
		t.Error("SlideSorted accepted a NaN entering value")
	}
	g = []float64{1, 2, 3, 4}
	if SlideSorted(g, 5, 9) {
		t.Error("SlideSorted accepted a leaving value beyond the maximum")
	}
}

// TestMedianSortedMatchesMedianScratch checks bit-identity of the two
// median forms on equal multisets, odd and even lengths.
func TestMedianSortedMatchesMedianScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	scratch := make([]float64, 64)
	for _, n := range []int{1, 2, 3, 4, 9, 10, 33} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		want := MedianScratch(xs, scratch)
		sorted := append([]float64(nil), xs...)
		Sort(sorted)
		if got := MedianSorted(sorted); got != want {
			t.Errorf("n=%d: MedianSorted %g != MedianScratch %g", n, got, want)
		}
	}
	if MedianSorted(nil) != 0 {
		t.Error("MedianSorted(nil) != 0")
	}
}

// TestKSPresortedMatchesSorted checks the presorted kernel against the
// brute-force ECDF statistic and the copy-and-sort kernel on random
// samples with many ties (the fuzz target deepens this).
func TestKSPresortedMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const cAlpha = 1.6276 // ~99% confidence
	scratch := make([]float64, 256)
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(128)
		n := 1 + rng.Intn(64)
		ref := make([]float64, m)
		mon := make([]float64, n)
		for i := range ref {
			ref[i] = math.Floor(rng.Float64() * 20)
		}
		for i := range mon {
			mon[i] = math.Floor(rng.Float64()*20) + float64(trial%3)
		}
		sort.Float64s(ref)
		wantD, wantCrit := KSRejectStatSorted(ref, mon, scratch, cAlpha)
		monSorted := append([]float64(nil), mon...)
		Sort(monSorted)
		gotD, gotCrit := KSRejectStatPresorted(ref, monSorted, cAlpha)
		if brute := bruteKSD(t, ref, mon); math.Abs(gotD-brute) > 1e-12 {
			t.Fatalf("trial %d: presorted D %g != brute-force ECDF D %g", trial, gotD, brute)
		}
		if gotD != wantD || gotCrit != wantCrit {
			t.Fatalf("trial %d: presorted (%g, %g) != sorted (%g, %g)", trial, gotD, gotCrit, wantD, wantCrit)
		}
		if d := KSStatisticPresorted(ref, monSorted); d != KSStatistic(ref, mon) {
			t.Fatalf("trial %d: KSStatisticPresorted %g != KSStatistic %g", trial, d, KSStatistic(ref, mon))
		}
	}
}

// TestKSStatisticAllocs pins the single-backing-slice optimization: one
// allocation per call regardless of input sizes, and none at all for the
// presorted kernel's binary-search counting.
func TestKSStatisticAllocs(t *testing.T) {
	a := make([]float64, 300)
	b := make([]float64, 70)
	for i := range a {
		a[i] = float64(i % 17)
	}
	for i := range b {
		b[i] = float64(i % 13)
	}
	avg := testing.AllocsPerRun(200, func() {
		KSStatistic(a, b)
	})
	if avg > 1 {
		t.Errorf("KSStatistic allocates %.1f allocs/op, want <= 1", avg)
	}
	avg = testing.AllocsPerRun(200, func() {
		KSStatisticPresorted(a, b)
	})
	if avg != 0 {
		t.Errorf("KSStatisticPresorted allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkKSStatistic tracks the copy-and-sort statistic's cost and its
// single-allocation guarantee (run with -benchmem).
func BenchmarkKSStatistic(b *testing.B) {
	a := make([]float64, 256)
	c := make([]float64, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range c {
		c[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSStatistic(a, c)
	}
}

// BenchmarkKSRejectStatPresorted is the sort-once hot-path kernel, zero
// copies and zero allocations, at the shapes the monitor sees: the fleet
// model's trained reference against its group (m = 778, n = 8) and a
// comparable-size pair (m = 256, n = 64).
func BenchmarkKSRejectStatPresorted(b *testing.B) {
	for _, sz := range []struct{ m, n int }{{778, 8}, {256, 64}} {
		b.Run(fmt.Sprintf("m=%d,n=%d", sz.m, sz.n), func(b *testing.B) {
			ref := make([]float64, sz.m)
			mon := make([]float64, sz.n)
			rng := rand.New(rand.NewSource(2))
			for i := range ref {
				ref[i] = rng.Float64()
			}
			for i := range mon {
				mon[i] = rng.Float64()
			}
			sort.Float64s(ref)
			sort.Float64s(mon)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				KSRejectStatPresorted(ref, mon, 1.6276)
			}
		})
	}
}
