package dsp

import "math"

// orthonormTol is the relative column-norm floor below which a column is
// treated as linearly dependent during orthonormalization: once the
// residual after projecting out earlier columns drops under tol times
// the column's pre-projection norm, nothing numerically meaningful is
// left and the column is zeroed instead of normalized noise.
const orthonormTol = 1e-12

// Orthonormalize turns the columns of q into an orthonormal basis of
// their span, in place, and returns the numerical rank (the number of
// nonzero columns kept). It runs modified Gram-Schmidt with one full
// re-orthogonalization pass per column ("twice is enough"), which keeps
// QᵀQ within a few ulps of the identity even for the nearly dependent
// columns a power-iterated range finder produces. Rank-deficient
// columns are set to zero — projections through the basis then simply
// ignore them — so the routine is total and deterministic for any
// input, including zero and non-finite-free degenerate matrices.
//
// Each projection's axpy is fused with the dot product that follows it
// (the next projection coefficient, or the final squared norm), so cj
// is swept once per projection instead of twice. The fused sweep forms
// the same products in the same index order as separate dot and axpy
// loops, so the basis is bit-identical to theirs.
func Orthonormalize(q *Mat) int {
	rank := 0
	for j := 0; j < q.Cols; j++ {
		cj := q.Col(j)
		sq0 := dot(cj, cj)
		norm0 := math.Sqrt(sq0)
		// Two MGS passes: the second mops up the projection error the
		// first leaves when cj is nearly inside the span so far. r
		// always holds the dot of cj with the next column to project
		// out, and after the last projection cj's squared norm.
		r := sq0
		if j > 0 {
			r = dot(q.Col(0), cj)
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < j; i++ {
				next := cj
				if i+1 < j {
					next = q.Col(i + 1)
				} else if pass == 0 {
					next = q.Col(0)
				}
				if r == 0 {
					r = dot(next, cj)
					continue
				}
				r = subDot(cj, r, q.Col(i), next)
			}
		}
		norm := math.Sqrt(r)
		if norm <= orthonormTol*norm0 || norm == 0 || math.IsNaN(norm) || math.IsInf(norm, 0) {
			for k := range cj {
				cj[k] = 0
			}
			continue
		}
		inv := 1 / norm
		for k := range cj {
			cj[k] *= inv
		}
		rank++
	}
	return rank
}

// subDot sets y -= r·x and returns dot(z, y) of the updated y in the
// same sweep; z may alias y. Element k of y is stored before z[k] is
// read, so with z == y the result is y's new squared norm.
func subDot(y []float64, r float64, x, z []float64) float64 {
	x, z = x[:len(y)], z[:len(y)]
	var s float64
	for k, v := range y {
		v -= r * x[k]
		y[k] = v
		s += z[k] * v
	}
	return s
}
