package dsp

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

// lowRankPlusNoise builds A = L + eps·N where L has the given exact rank
// and N is dense Gaussian noise — the matrix family the denoiser is
// designed for and the property tests quantify against.
func lowRankPlusNoise(m, n, rank int, eps float64, seed uint64) *Mat {
	l := randMat(m, rank, seed)
	r := randMat(rank, n, seed+1)
	var a Mat
	MulInto(&a, l, r)
	noise := make([]float64, m*n)
	fillGaussian(noise, seed+2)
	for i := range a.Data {
		a.Data[i] += eps * noise[i]
	}
	return &a
}

// orthoError returns max |QᵀQ - I| over the nonzero columns of q.
func orthoError(q *Mat) float64 {
	var worst float64
	for i := 0; i < q.Cols; i++ {
		ci := q.Col(i)
		ni := dot(ci, ci)
		if ni == 0 {
			continue // dropped rank-deficient column
		}
		for j := i; j < q.Cols; j++ {
			cj := q.Col(j)
			if dot(cj, cj) == 0 {
				continue
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if e := math.Abs(dot(ci, cj) - want); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// TestOrthonormalizeProperty: for random, low-rank and duplicate-column
// matrices the computed basis satisfies QᵀQ ≈ I on its kept columns and
// reports the right rank.
func TestOrthonormalizeProperty(t *testing.T) {
	cases := []struct {
		name    string
		mat     *Mat
		minRank int
	}{
		{"dense 40x8", randMat(40, 8, 5), 8},
		{"dense 8x8", randMat(8, 8, 6), 8},
		{"low-rank", lowRankPlusNoise(30, 10, 3, 0, 7), 3},
		{"zero", NewMat(20, 5), 0},
	}
	// Duplicate columns: rank must collapse to the distinct count.
	dup := NewMat(16, 6)
	base := randMat(16, 2, 8)
	for j := 0; j < 6; j++ {
		copy(dup.Col(j), base.Col(j%2))
	}
	cases = append(cases, struct {
		name    string
		mat     *Mat
		minRank int
	}{"duplicated", dup, 2})

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rank := Orthonormalize(tc.mat)
			if rank != tc.minRank {
				t.Errorf("rank %d, want %d", rank, tc.minRank)
			}
			if e := orthoError(tc.mat); e > 1e-10 {
				t.Errorf("orthonormality error %g > 1e-10", e)
			}
		})
	}
}

// reconError returns ‖A − U·UᵀA‖_F, the rank-k subspace reconstruction
// error.
func reconError(a, u *Mat) float64 {
	var proj, rec Mat
	MulATBInto(&proj, u, a) // k×n
	MulInto(&rec, u, &proj) // m×n
	var s float64
	for i := range a.Data {
		d := a.Data[i] - rec.Data[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// optimalTruncError returns the Eckart-Young optimum √(Σ_{i≥k} σ_i²)
// from the exact singular values.
func optimalTruncError(a *Mat, k int) float64 {
	sv := singularValues(a)
	var s float64
	for i := k; i < len(sv); i++ {
		s += sv[i] * sv[i]
	}
	return math.Sqrt(s)
}

// TestRSVDReconstructionBound: on random low-rank-plus-noise matrices
// the randomized factorization's reconstruction error stays within a
// constant factor of the optimal rank-k truncation error — and never
// below it (Eckart-Young), which cross-checks singularValues.
func TestRSVDReconstructionBound(t *testing.T) {
	cases := []struct {
		m, n, rank, k int
		eps           float64
		seed          uint64
	}{
		{64, 32, 4, 6, 1e-3, 100},
		{64, 32, 4, 6, 1e-1, 101},
		{128, 24, 8, 8, 1e-2, 102},
		{257, 32, 6, 8, 0.5, 103}, // spectrogram-block shaped, heavy noise
		{32, 32, 2, 4, 1e-6, 104},
		{40, 10, 10, 4, 1e-2, 105}, // k below true rank: genuine truncation
	}
	for _, tc := range cases {
		a := lowRankPlusNoise(tc.m, tc.n, tc.rank, tc.eps, tc.seed)
		rs, err := NewRSVD(RSVDConfig{Rank: tc.k, Oversample: 4, PowerIters: 2, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		var u Mat
		sv := rs.Factor(&u, a, 0)
		if len(sv) == 0 {
			t.Fatalf("case %+v: no singular values", tc)
		}
		got := reconError(a, &u)
		opt := optimalTruncError(a, min(tc.k, min(tc.m, tc.n)))
		floor := 1e-9 * math.Sqrt(a.FrobeniusSq())
		if got+floor < opt {
			t.Errorf("case %+v: reconstruction error %g below the Eckart-Young optimum %g — singularValues or Factor is wrong", tc, got, opt)
		}
		// With oversampling and two power iterations the randomized error
		// concentrates tightly around the optimum; 1.5x is far beyond any
		// observed deviation while still catching a broken sketch.
		if got > 1.5*opt+floor {
			t.Errorf("case %+v: reconstruction error %g exceeds 1.5x optimal truncation error %g", tc, got, opt)
		}
		// The reported singular values must approximate the true leading
		// ones from above-to-within-tolerance.
		exact := singularValues(a)
		for i, s := range sv {
			if i >= len(exact) {
				break
			}
			if s > exact[i]*(1+1e-8)+floor {
				t.Errorf("case %+v: σ[%d]=%g exceeds exact %g", tc, i, s, exact[i])
			}
		}
	}
}

// TestRSVDBasisOrthonormal: the returned basis has orthonormal columns.
func TestRSVDBasisOrthonormal(t *testing.T) {
	a := lowRankPlusNoise(100, 40, 5, 1e-2, 200)
	rs, err := NewRSVD(RSVDConfig{Rank: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var u Mat
	rs.Factor(&u, a, 7)
	if u.Rows != 100 || u.Cols != 8 {
		t.Fatalf("basis shape %dx%d, want 100x8", u.Rows, u.Cols)
	}
	if e := orthoError(&u); e > 1e-10 {
		t.Errorf("basis orthonormality error %g", e)
	}
}

// TestRSVDDeterminism: factorization output is a pure function of
// (matrix, config, seed) — bit-identical across repeated calls, across
// RSVD instances, across GOMAXPROCS settings and under concurrency.
func TestRSVDDeterminism(t *testing.T) {
	a := lowRankPlusNoise(96, 32, 5, 0.1, 300)
	cfg := RSVDConfig{Rank: 6, Oversample: 3, PowerIters: 1, Seed: 42}

	factor := func() ([]float64, []float64) {
		rs, err := NewRSVD(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var u Mat
		sv := rs.Factor(&u, a, 9)
		return append([]float64(nil), u.Data...), append([]float64(nil), sv...)
	}

	prev := runtime.GOMAXPROCS(1)
	u1, sv1 := factor()
	runtime.GOMAXPROCS(4)
	u2, sv2 := factor()
	runtime.GOMAXPROCS(prev)

	if !sameBitsSlice(u1, u2) || !sameBitsSlice(sv1, sv2) {
		t.Fatal("factorization differs across GOMAXPROCS settings")
	}

	// Concurrent instances must not perturb each other.
	const workers = 8
	results := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			u, _ := factor()
			results[w] = u
		}(w)
	}
	wg.Wait()
	for w := range results {
		if !sameBitsSlice(results[w], u1) {
			t.Fatalf("concurrent factorization %d diverged", w)
		}
	}

	// A different seed must actually change the sketch (and in general
	// the roundoff pattern of the result).
	rs, _ := NewRSVD(cfg)
	var u3 Mat
	rs.Factor(&u3, a, 10)
	_ = u3 // different seed may still converge to the same subspace; no assertion
}

// TestSingularValuesKnown pins singularValues on a diagonal matrix.
func TestSingularValuesKnown(t *testing.T) {
	a := NewMat(5, 3)
	a.Set(0, 0, 3)
	a.Set(1, 1, -7) // singular value is |λ|
	a.Set(2, 2, 0.5)
	sv := singularValues(a)
	want := []float64{7, 3, 0.5}
	if len(sv) != 3 {
		t.Fatalf("got %d singular values, want 3", len(sv))
	}
	for i := range want {
		if math.Abs(sv[i]-want[i]) > 1e-12 {
			t.Errorf("σ[%d] = %g, want %g", i, sv[i], want[i])
		}
	}
}

// singularValues returns all min(m,n) singular values of a, descending.
// It forms the Gram matrix on the smaller side and eigen-decomposes it
// with the same Jacobi kernel RSVD uses for its small problem — O(min³)
// plus the Gram product, exact up to roundoff. The property tests use it
// to compute the optimal (Eckart-Young) truncation error the randomized
// factorization is judged against.
func singularValues(a *Mat) []float64 {
	var g, v Mat
	if a.Rows <= a.Cols {
		mulABTInto(&g, a, a)
	} else {
		MulATBInto(&g, a, a)
	}
	var jac jacobiScratch
	eig := symEigJacobi(&g, &v, nil, &jac)
	for i, lam := range eig {
		if lam > 0 {
			eig[i] = math.Sqrt(lam)
		} else {
			eig[i] = 0
		}
	}
	return eig
}

func sameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
