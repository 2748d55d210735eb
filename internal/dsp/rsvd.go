package dsp

import (
	"fmt"
	"math"
)

// RSVDConfig parameterizes the randomized truncated SVD.
type RSVDConfig struct {
	// Rank is the number of dominant singular directions kept.
	Rank int
	// Oversample widens the random sketch beyond Rank (the classic p of
	// Halko/Martinsson/Tropp); the extra directions are discarded after
	// the small factorization. Zero means 4.
	Oversample int
	// PowerIters is the number of subspace power iterations. Each one
	// sharpens the sketch's alignment with the dominant subspace by the
	// ratio of consecutive singular values squared; one is enough for
	// spectrogram blocks, whose spectra decay fast. Zero means 1.
	PowerIters int
	// Seed seeds the Gaussian test matrix. The generator is a private
	// splitmix64 + Box-Muller chain, so sketches are bit-reproducible
	// across runs, worker counts and Go versions.
	Seed uint64
}

// withDefaults fills zero fields with their documented defaults.
func (c RSVDConfig) withDefaults() RSVDConfig {
	if c.Oversample == 0 {
		c.Oversample = 4
	}
	if c.PowerIters == 0 {
		c.PowerIters = 1
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c RSVDConfig) Validate() error {
	if c.Rank < 1 {
		return fmt.Errorf("dsp: RSVD rank %d < 1", c.Rank)
	}
	if c.Oversample < 0 {
		return fmt.Errorf("dsp: RSVD oversample %d < 0", c.Oversample)
	}
	if c.PowerIters < 0 {
		return fmt.Errorf("dsp: RSVD power iterations %d < 0", c.PowerIters)
	}
	return nil
}

// RSVD computes rank-k truncated singular value decompositions by
// randomized range finding (Halko, Martinsson & Tropp 2011): sketch the
// column space with a seeded Gaussian test matrix, sharpen it with
// power iterations, then solve the small (k+p)-dimensional problem
// exactly with a Jacobi eigensolver. One RSVD value owns every
// workspace it needs, so repeated factorizations of same-shaped inputs
// allocate nothing — the streaming denoiser refactors every stride
// windows on the hot path.
//
// The factorization is fully deterministic: the only randomness is the
// test matrix, which is derived from the seed passed to Factor.
type RSVD struct {
	cfg RSVDConfig

	omega Mat // n×l Gaussian test matrix
	y     Mat // m×l range sketch
	z     Mat // n×l power-iteration companion
	b     Mat // l×n projected matrix B = QᵀA
	g     Mat // l×l Gram matrix B·Bᵀ
	w     Mat // l×l eigenvectors of g
	eig   []float64
	jac   jacobiScratch
}

// NewRSVD returns a factorizer for the configuration.
func NewRSVD(cfg RSVDConfig) (*RSVD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &RSVD{cfg: cfg.withDefaults()}, nil
}

// Rank returns the configured target rank.
func (s *RSVD) Rank() int { return s.cfg.Rank }

// Factor computes the rank-k truncated SVD of a (m×n): on return u is an
// m×k matrix with orthonormal columns spanning the dominant subspace
// (k = min(Rank, m, n); rank-deficient directions come back as zero
// columns), and the returned slice holds the k estimated singular
// values, descending. The slice aliases internal storage and is valid
// until the next Factor call. seed selects the Gaussian sketch;
// identical (a, seed) always produce bit-identical results.
func (s *RSVD) Factor(u *Mat, a *Mat, seed uint64) []float64 {
	m, n := a.Rows, a.Cols
	k := s.cfg.Rank
	if k > m {
		k = m
	}
	if k > n {
		k = n
	}
	l := k + s.cfg.Oversample
	if mn := min(m, n); l > mn {
		l = mn
	}
	if k < 1 || l < 1 {
		u.Reshape(m, 0)
		s.eig = s.eig[:0]
		return s.eig
	}

	// Sketch: Y = A·Ω with Ω ~ N(0,1), seeded.
	s.omega.Reshape(n, l)
	fillGaussian(s.omega.Data, s.cfg.Seed^seed)
	MulInto(&s.y, a, &s.omega)
	Orthonormalize(&s.y)

	// Power iterations with QR re-orthonormalization at every half-step:
	// without it the sketch collapses onto the single largest direction
	// in floating point.
	for it := 0; it < s.cfg.PowerIters; it++ {
		MulATBInto(&s.z, a, &s.y) // Z = AᵀQ (n×l)
		Orthonormalize(&s.z)
		MulInto(&s.y, a, &s.z) // Y = A·Z (m×l)
		Orthonormalize(&s.y)
	}

	// Small exact problem: B = QᵀA (l×n), G = BBᵀ (l×l symmetric).
	// Eigen-decomposing G gives the left singular structure of B — and
	// the top-k singular directions of A are Q times the top-k
	// eigenvectors.
	MulATBInto(&s.b, &s.y, a)
	mulABTInto(&s.g, &s.b, &s.b)
	s.eig = symEigJacobi(&s.g, &s.w, s.eig[:0], &s.jac)

	u.Reshape(m, k)
	for j := 0; j < k; j++ {
		MulVecInto(u.Col(j), &s.y, s.w.Col(j))
	}
	s.eig = s.eig[:k]
	for i, lam := range s.eig {
		if lam > 0 {
			s.eig[i] = math.Sqrt(lam)
		} else {
			s.eig[i] = 0
		}
	}
	return s.eig
}

// mulABTInto computes dst = a·bᵀ for equal-row-count a and b. Only used
// for the small l×n · n×l Gram product, where walking rows is cheap.
func mulABTInto(dst, a, b *Mat) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dsp: mulABTInto shape mismatch: %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Rows)
	dst.Zero()
	for k := 0; k < a.Cols; k++ {
		ak, bk := a.Col(k), b.Col(k)
		for j, bjk := range bk {
			if bjk == 0 {
				continue
			}
			dj := dst.Col(j)
			for i, aik := range ak {
				dj[i] += aik * bjk
			}
		}
	}
}

// jacobiScratch holds the permutation scratch of the eigensolver.
type jacobiScratch struct {
	ord []int
	tmp []float64
}

// symEigJacobi eigen-decomposes the symmetric matrix g in place with the
// cyclic Jacobi method: eigenvalues are returned appended to eig in
// descending order and the matching eigenvectors land in the columns of
// v. Jacobi is slower than tridiagonalization but unconditionally
// stable, free of convergence branches that could order results
// differently across platforms, and exact enough that the randomized
// SVD's small problem adds no error of its own. g is destroyed.
func symEigJacobi(g, v *Mat, eig []float64, sc *jacobiScratch) []float64 {
	n := g.Rows
	v.Reshape(n, n)
	v.Zero()
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	if n == 0 {
		return eig[:0]
	}
	const maxSweeps = 50
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				off += g.At(i, j) * g.At(i, j)
			}
		}
		if off == 0 || !(math.Sqrt(2*off) > 1e-14*frobenius(g)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := g.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := g.At(p, p), g.At(q, q)
				// Stable rotation angle (Golub & Van Loan §8.5).
				theta := (aqq - app) / (2 * apq)
				t := 1 / (math.Abs(theta) + math.Sqrt(1+theta*theta))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				rotateSym(g, p, q, c, s)
				rotateCols(v, p, q, c, s)
			}
		}
	}
	// Sort eigenpairs descending by eigenvalue; the order must be a
	// total, deterministic function of the values (ties broken by index).
	if cap(sc.ord) < n {
		sc.ord = make([]int, n)
		sc.tmp = make([]float64, n)
	}
	ord := sc.ord[:n]
	for i := range ord {
		ord[i] = i
	}
	// Insertion sort: n is small (k+p) and the order is stable.
	for i := 1; i < n; i++ {
		oi := ord[i]
		key := g.At(oi, oi)
		j := i - 1
		for j >= 0 && g.At(ord[j], ord[j]) < key {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = oi
	}
	eig = eig[:0]
	for _, i := range ord {
		eig = append(eig, g.At(i, i))
	}
	// Permute eigenvector columns to match, one row at a time through the
	// scratch buffer (cheaper than materializing a permuted copy).
	tmp := sc.tmp[:n]
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			tmp[c] = v.At(r, ord[c])
		}
		for c := 0; c < n; c++ {
			v.Set(r, c, tmp[c])
		}
	}
	return eig
}

// rotateSym applies the two-sided Jacobi rotation to the symmetric
// matrix g on the (p,q) plane.
func rotateSym(g *Mat, p, q int, c, s float64) {
	n := g.Rows
	app, aqq, apq := g.At(p, p), g.At(q, q), g.At(p, q)
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip, aiq := g.At(i, p), g.At(i, q)
		g.Set(i, p, c*aip-s*aiq)
		g.Set(p, i, c*aip-s*aiq)
		g.Set(i, q, s*aip+c*aiq)
		g.Set(q, i, s*aip+c*aiq)
	}
	g.Set(p, p, c*c*app-2*s*c*apq+s*s*aqq)
	g.Set(q, q, s*s*app+2*s*c*apq+c*c*aqq)
	g.Set(p, q, 0)
	g.Set(q, p, 0)
}

// rotateCols applies the rotation to columns p and q of v (the
// accumulated eigenvector matrix).
func rotateCols(v *Mat, p, q int, c, s float64) {
	cp, cq := v.Col(p), v.Col(q)
	for i := range cp {
		vip, viq := cp[i], cq[i]
		cp[i] = c*vip - s*viq
		cq[i] = s*vip + c*viq
	}
}

// frobenius returns the Frobenius norm of g.
func frobenius(g *Mat) float64 { return math.Sqrt(g.FrobeniusSq()) }

// fillGaussian fills dst with standard normal variates from a splitmix64
// generator and the Box-Muller transform. Self-contained so sketches are
// bit-stable across Go releases (math/rand's stream is not part of any
// compatibility promise once v2 migrations happen).
func fillGaussian(dst []float64, seed uint64) {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	// uniform returns a float64 in (0, 1]: the +1 shift keeps log(u)
	// finite.
	uniform := func() float64 {
		return (float64(next()>>11) + 1) / (1 << 53)
	}
	for i := 0; i+1 < len(dst); i += 2 {
		u1, u2 := uniform(), uniform()
		r := math.Sqrt(-2 * math.Log(u1))
		dst[i] = r * math.Cos(2*math.Pi*u2)
		dst[i+1] = r * math.Sin(2*math.Pi*u2)
	}
	if len(dst)%2 == 1 {
		u1, u2 := uniform(), uniform()
		dst[len(dst)-1] = math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}
