package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or 0 when fewer than
// two observations are available.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the sample median, or 0 for an empty slice.
func Median(xs []float64) float64 {
	return MedianScratch(xs, make([]float64, len(xs)))
}

// MedianScratch is Median on caller-provided scratch space (len >=
// len(xs)); the hot decision loop uses it to stay allocation-free. xs is
// unmodified; scratch contents are overwritten.
func MedianScratch(xs, scratch []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := copy(scratch, xs)
	s := scratch[:n]
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// MinMax returns the smallest and largest value of xs. For an empty slice
// it returns (0, 0).
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Histogram bins xs into nbins equal-width bins spanning [lo, hi] and
// returns the count per bin. Values outside the range are clamped into the
// first/last bin. nbins must be positive and hi > lo; otherwise nil.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	if nbins <= 0 || hi <= lo {
		return nil
	}
	counts := make([]int, nbins)
	width := (hi - lo) / float64(nbins)
	for _, x := range xs {
		i := int((x - lo) / width)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		counts[i]++
	}
	return counts
}

// NormalPDF evaluates the normal density with the given parameters.
func NormalPDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// BiNormalFit is a two-component Gaussian mixture fitted with a small EM
// loop. The paper shows (Fig 2) that even a bi-normal fit mismatches the
// true peak-frequency distribution, motivating nonparametric tests.
type BiNormalFit struct {
	Weight1, Mu1, Sigma1 float64
	Weight2, Mu2, Sigma2 float64
}

// FitBiNormal runs expectation–maximization for a two-component 1-D
// Gaussian mixture. iterations controls the number of EM steps.
func FitBiNormal(xs []float64, iterations int) BiNormalFit {
	if len(xs) == 0 {
		return BiNormalFit{Weight1: 0.5, Weight2: 0.5}
	}
	lo, hi := MinMax(xs)
	f := BiNormalFit{
		Weight1: 0.5, Mu1: lo + (hi-lo)/4, Sigma1: (hi - lo) / 4,
		Weight2: 0.5, Mu2: lo + 3*(hi-lo)/4, Sigma2: (hi - lo) / 4,
	}
	if f.Sigma1 <= 0 {
		f.Sigma1, f.Sigma2 = 1, 1
	}
	resp := make([]float64, len(xs))
	for it := 0; it < iterations; it++ {
		// E step: responsibility of component 1 for each observation.
		for i, x := range xs {
			p1 := f.Weight1 * NormalPDF(x, f.Mu1, f.Sigma1)
			p2 := f.Weight2 * NormalPDF(x, f.Mu2, f.Sigma2)
			if p1+p2 <= 0 {
				resp[i] = 0.5
			} else {
				resp[i] = p1 / (p1 + p2)
			}
		}
		// M step.
		var n1, s1, n2, s2 float64
		for i, x := range xs {
			n1 += resp[i]
			s1 += resp[i] * x
			n2 += 1 - resp[i]
			s2 += (1 - resp[i]) * x
		}
		if n1 <= 0 || n2 <= 0 {
			break
		}
		f.Mu1 = s1 / n1
		f.Mu2 = s2 / n2
		var v1, v2 float64
		for i, x := range xs {
			d1 := x - f.Mu1
			d2 := x - f.Mu2
			v1 += resp[i] * d1 * d1
			v2 += (1 - resp[i]) * d2 * d2
		}
		f.Sigma1 = math.Sqrt(v1/n1) + 1e-12
		f.Sigma2 = math.Sqrt(v2/n2) + 1e-12
		f.Weight1 = n1 / float64(len(xs))
		f.Weight2 = n2 / float64(len(xs))
	}
	return f
}

// PDF evaluates the mixture density.
func (f BiNormalFit) PDF(x float64) float64 {
	return f.Weight1*NormalPDF(x, f.Mu1, f.Sigma1) + f.Weight2*NormalPDF(x, f.Mu2, f.Sigma2)
}

// CDF evaluates the mixture cumulative distribution.
func (f BiNormalFit) CDF(x float64) float64 {
	c1 := NormalCDF((x - f.Mu1) / f.Sigma1)
	c2 := NormalCDF((x - f.Mu2) / f.Sigma2)
	return f.Weight1*c1 + f.Weight2*c2
}
