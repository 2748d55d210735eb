package stats

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// FuzzKSPresorted checks the presorted decision kernel on arbitrary
// inputs (the contract the monitor's sort-once hot path rests on): its D
// must match the brute-force ECDF statistic to within 1e-12, ties
// included, and its (D, critical) pair must be bit-identical to the
// copy-and-sort reference. Whatever the shape, the merge and search
// kernels must return the same D bit for bit, in both argument orders.
func FuzzKSPresorted(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, 0.01)
	f.Add([]byte{0, 0, 0}, []byte{0, 0}, 0.05)
	f.Add([]byte{9}, []byte{9, 9, 9, 200}, 0.001)
	// m >> n: the shapes the monitor sees (hundreds of reference windows
	// against a group of a few), in both argument orders.
	f.Add(rampBytes(778, 7), []byte{40, 41, 41, 90, 200, 201, 250, 3}, 0.01)
	f.Add(rampBytes(600, 1), []byte{255}, 0.01)
	f.Add(rampBytes(300, 0), []byte{0, 0, 0}, 0.05)
	f.Add([]byte{128}, rampBytes(900, 13), 0.01)
	// Comparable sizes, m = 4n and 4n+1.
	f.Add(rampBytes(64, 5), rampBytes(64, 9), 0.01)
	f.Add(rampBytes(256, 0), rampBytes(64, 20), 0.01)
	f.Add(rampBytes(257, 0), rampBytes(64, 20), 0.01)
	// Degenerate shapes: all ties on one value (D = 0) or on two
	// (D = 1), the reference wholly below or above the group, the
	// reference reaching the group's only value, single elements.
	f.Add(bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{7}, 7), 0.01)
	f.Add(bytes.Repeat([]byte{7}, 100), bytes.Repeat([]byte{9}, 7), 0.01)
	f.Add(rampBytes(200, 0), []byte{200, 201, 203, 203, 210, 250, 251, 252, 255}, 0.01)
	f.Add(rampBytes(200, 150), []byte{0, 1, 1, 2, 30, 31, 32, 33, 34}, 0.01)
	f.Add(append(rampBytes(40, 0), 90), []byte{90, 90, 90}, 0.01)
	f.Add([]byte{1}, []byte{1}, 0.01)
	f.Add([]byte{1}, []byte{2}, 0.01)
	f.Fuzz(func(t *testing.T, refB, monB []byte, alpha float64) {
		if len(refB) == 0 || len(monB) == 0 || len(refB)+len(monB) > 1024 {
			t.Skip()
		}
		if math.IsNaN(alpha) || alpha <= 0 || alpha >= 1 {
			alpha = 0.01
		}
		cAlpha := KolmogorovInverse(1 - alpha)
		ref := make([]float64, len(refB))
		mon := make([]float64, len(monB))
		for i, v := range refB {
			ref[i] = float64(v) / 3 // non-integral values, frequent ties
		}
		for i, v := range monB {
			mon[i] = float64(v) / 3
		}
		sort.Float64s(ref)
		monSorted := append([]float64(nil), mon...)
		Sort(monSorted)
		gotD, gotCrit := KSRejectStatPresorted(ref, monSorted, cAlpha)
		if want := bruteKSD(t, ref, mon); math.Abs(gotD-want) > 1e-12 {
			t.Fatalf("presorted D = %g, brute-force ECDF D = %g", gotD, want)
		}
		scratch := make([]float64, len(mon))
		wantD, wantCrit := KSRejectStatSorted(ref, mon, scratch, cAlpha)
		if gotD != wantD || gotCrit != wantCrit {
			t.Fatalf("presorted (d=%g, crit=%g) != copy-and-sort (d=%g, crit=%g)", gotD, gotCrit, wantD, wantCrit)
		}
		merge := ksStatMerge(ref, monSorted)
		for _, k := range []struct {
			name string
			d    float64
		}{
			{"merge(mon, ref)", ksStatMerge(monSorted, ref)},
			{"search(ref, mon)", ksStatSearch(ref, monSorted)},
			{"search(mon, ref)", ksStatSearch(monSorted, ref)},
			{"presorted", gotD},
		} {
			if k.d != merge {
				t.Fatalf("m=%d n=%d: %s D = %v, merge(ref, mon) D = %v", len(ref), len(mon), k.name, k.d, merge)
			}
		}
	})
}

// rampBytes is a deterministic fuzz seed of n bytes: a slow ramp with
// every value repeated, so long seeds carry ties.
func rampBytes(n int, offset byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i/3) + offset
	}
	return b
}

// ksStatMerge is the reference the search kernel is held to: one merge
// pass over both sorted samples, evaluating |F_a - F_b| at every
// distinct value until either sample is exhausted. O(m + n).
func ksStatMerge(as, bs []float64) float64 {
	var i, j int
	var d float64
	m := float64(len(as))
	n := float64(len(bs))
	for i < len(as) && j < len(bs) {
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		diff := math.Abs(float64(i)/m - float64(j)/n)
		if diff > d {
			d = diff
		}
	}
	return d
}

// bruteKSD is the two-sample K-S statistic by definition, independent of
// the merge kernel: the largest |F_ref(x) - F_mon(x)| over every sample
// point x, read off two ECDFs. Both ECDFs are right-continuous steps
// that change only at sample points, so the supremum is attained there.
func bruteKSD(t testing.TB, ref, mon []float64) float64 {
	t.Helper()
	fr, err := NewECDF(ref)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := NewECDF(mon)
	if err != nil {
		t.Fatal(err)
	}
	var d float64
	for _, s := range [][]float64{ref, mon} {
		for _, x := range s {
			d = math.Max(d, math.Abs(fr.At(x)-fm.At(x)))
		}
	}
	return d
}

// FuzzKSStatistic checks the two-sample K-S statistic invariants on
// arbitrary samples: range [0,1], symmetry, identity.
func FuzzKSStatistic(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{3, 2, 1})
	f.Add([]byte{0}, []byte{255})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		if len(ab) == 0 || len(bb) == 0 || len(ab)+len(bb) > 2048 {
			t.Skip()
		}
		a := make([]float64, len(ab))
		b := make([]float64, len(bb))
		for i, v := range ab {
			a[i] = float64(v)
		}
		for i, v := range bb {
			b[i] = float64(v)
		}
		d := KSStatistic(a, b)
		if d < 0 || d > 1 {
			t.Fatalf("D = %g outside [0,1]", d)
		}
		if d2 := KSStatistic(b, a); d != d2 {
			t.Fatalf("asymmetric: %g vs %g", d, d2)
		}
		if KSStatistic(a, a) != 0 {
			t.Fatal("self-distance nonzero")
		}
	})
}

// FuzzECDF checks ECDF bounds and monotonicity for arbitrary samples.
func FuzzECDF(f *testing.F) {
	f.Add([]byte{5, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 2048 {
			t.Skip()
		}
		s := make([]float64, len(data))
		for i, v := range data {
			s[i] = float64(v)
		}
		e, err := NewECDF(s)
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for x := -1.0; x <= 256; x += 16 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				t.Fatalf("ECDF not monotone in [0,1] at %g: %g (prev %g)", x, v, prev)
			}
			prev = v
		}
		if e.At(256) != 1 {
			t.Fatal("ECDF must reach 1 beyond the maximum")
		}
	})
}
