package stats

import (
	"math"
	"sort"
	"testing"
)

// FuzzKSPresorted checks the presorted decision kernel on arbitrary
// inputs (the contract the monitor's sort-once hot path rests on): its D
// must match the brute-force ECDF statistic to within 1e-12, ties
// included, and its (D, critical) pair must be bit-identical to the
// copy-and-sort reference.
func FuzzKSPresorted(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{4, 3, 2, 1}, 0.01)
	f.Add([]byte{0, 0, 0}, []byte{0, 0}, 0.05)
	f.Add([]byte{9}, []byte{9, 9, 9, 200}, 0.001)
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
	})
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
