package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0}, {1, 1.0 / 3}, {1.5, 1.0 / 3}, {2, 2.0 / 3}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("F(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if _, err := NewECDF(nil); err == nil {
		t.Error("empty sample should be rejected")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		s := make([]float64, n)
		for i := range s {
			s[i] = r.NormFloat64() * 10
		}
		e, err := NewECDF(s)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -30.0; x <= 30; x += 0.5 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestECDFQuantile(t *testing.T) {
	e, _ := NewECDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q := e.Quantile(0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := e.Quantile(1); q != 10 {
		t.Errorf("q1 = %g", q)
	}
	if q := e.Quantile(0.5); q != 5 {
		t.Errorf("median = %g, want 5", q)
	}
}

func TestKSStatisticKnownValues(t *testing.T) {
	// Identical samples: D = 0.
	a := []float64{1, 2, 3, 4}
	if d := KSStatistic(a, a); d != 0 {
		t.Errorf("identical samples: D = %g", d)
	}
	// Completely disjoint: D = 1.
	b := []float64{10, 11, 12}
	if d := KSStatistic(a, b); d != 1 {
		t.Errorf("disjoint samples: D = %g", d)
	}
	// Hand-computed: a={1,2}, b={1.5}: F_a steps 0.5 at 1, 1 at 2;
	// F_b steps 1 at 1.5. Max gap is 0.5 (at 1 and at 1.5).
	if d := KSStatistic([]float64{1, 2}, []float64{1.5}); math.Abs(d-0.5) > 1e-12 {
		t.Errorf("D = %g, want 0.5", d)
	}
}

func TestKSStatisticProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(60)
		n := 1 + r.Intn(60)
		a := make([]float64, m)
		bb := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range bb {
			bb[i] = r.NormFloat64()
		}
		d1 := KSStatistic(a, bb)
		d2 := KSStatistic(bb, a)
		// Symmetry, range, and zero for self-comparison.
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1 && KSStatistic(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKolmogorovDistribution(t *testing.T) {
	// Textbook values: Q(1.36) ~ 0.049, Q(1.63) ~ 0.010.
	if q := KolmogorovSurvival(1.36); math.Abs(q-0.049) > 0.002 {
		t.Errorf("Q(1.36) = %g, want ~0.049", q)
	}
	if q := KolmogorovSurvival(1.63); math.Abs(q-0.010) > 0.001 {
		t.Errorf("Q(1.63) = %g, want ~0.010", q)
	}
	if q := KolmogorovSurvival(0); q != 1 {
		t.Errorf("Q(0) = %g", q)
	}
	// Inverse round trip.
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		c := KolmogorovInverse(p)
		if got := KolmogorovCDF(c); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Inverse(%g)) = %g", p, got)
		}
	}
	// The classic critical constants.
	if c := KolmogorovInverse(0.95); math.Abs(c-1.358) > 0.002 {
		t.Errorf("c(0.05) = %g, want ~1.358", c)
	}
	if c := KolmogorovInverse(0.99); math.Abs(c-1.628) > 0.002 {
		t.Errorf("c(0.01) = %g, want ~1.628", c)
	}
}

func TestKSTestSameDistributionRarelyRejects(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rejects := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		a := make([]float64, 100)
		b := make([]float64, 40)
		for j := range a {
			a[j] = r.NormFloat64()
		}
		for j := range b {
			b[j] = r.NormFloat64()
		}
		res, err := KSTest(a, b, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejects++
		}
	}
	// At alpha=0.01 we expect ~1% false rejections; allow up to 4%.
	if rejects > trials*4/100 {
		t.Errorf("%d/%d false rejections at alpha=0.01", rejects, trials)
	}
}

func TestKSTestDifferentDistributionsReject(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	detected := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		a := make([]float64, 100)
		b := make([]float64, 40)
		for j := range a {
			a[j] = r.NormFloat64()
		}
		for j := range b {
			b[j] = r.NormFloat64() + 1.2 // shifted mean
		}
		res, err := KSTest(a, b, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			detected++
		}
	}
	if detected < trials*85/100 {
		t.Errorf("only %d/%d shifted distributions detected", detected, trials)
	}
}

func TestKSRejectSortedMatchesKSTest(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cAlpha := KolmogorovInverse(0.99)
	scratch := make([]float64, 64)
	for i := 0; i < 200; i++ {
		m := 20 + r.Intn(100)
		n := 4 + r.Intn(60)
		ref := make([]float64, m)
		mon := make([]float64, n)
		for j := range ref {
			ref[j] = r.NormFloat64()
		}
		for j := range mon {
			mon[j] = r.NormFloat64() + r.Float64()
		}
		want, err := KSTest(ref, mon, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		sortedRef := append([]float64(nil), ref...)
		sortFloats(sortedRef)
		d, crit := KSRejectStatSorted(sortedRef, mon, scratch, cAlpha)
		if got := d > crit; got != want.Reject {
			t.Fatalf("trial %d: fast path %v, reference %v (D=%g crit=%g)", i, got, want.Reject, want.D, want.Critical)
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func TestKSTestValidation(t *testing.T) {
	if _, err := KSTest(nil, []float64{1}, 0.01); err == nil {
		t.Error("empty reference should error")
	}
	if _, err := KSTest([]float64{1}, []float64{1}, 0); err == nil {
		t.Error("alpha=0 should error")
	}
	if _, err := KSTest([]float64{1}, []float64{1}, 1); err == nil {
		t.Error("alpha=1 should error")
	}
}

func TestUTestDetectsMedianShift(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	a := make([]float64, 200)
	b := make([]float64, 200)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 0.8
	}
	res, err := UTest(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("shift of 0.8 sigma not detected: p=%g", res.PValue)
	}
	same, err := UTest(a, a, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if same.Reject {
		t.Errorf("identical samples rejected: p=%g", same.PValue)
	}
}

func TestUTestVarianceOnlyChangeIsInvisible(t *testing.T) {
	// The U test keys on medians; a pure variance change with the same
	// median should usually pass, while the K-S test catches it. This is
	// the property that made the paper pick K-S.
	r := rand.New(rand.NewSource(11))
	a := make([]float64, 400)
	b := make([]float64, 400)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() * 3
	}
	u, err := UTest(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := KSTest(a, b, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if u.Reject {
		t.Log("U test rejected a variance-only change (possible but unusual)")
	}
	if !ks.Reject {
		t.Error("K-S test should detect a 3x variance change with n=400")
	}
}

func TestNormalCDFValues(t *testing.T) {
	if got := NormalCDF(0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Phi(0) = %g", got)
	}
	if got := NormalCDF(1.96); math.Abs(got-0.975) > 1e-3 {
		t.Errorf("Phi(1.96) = %g", got)
	}
	if got := NormalSurvival(1.96) + NormalCDF(1.96); math.Abs(got-1) > 1e-12 {
		t.Errorf("survival+cdf = %g", got)
	}
}

func TestDescriptiveStats(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %g", m)
	}
	if v := Variance(xs); math.Abs(v-32.0/7) > 1e-12 {
		t.Errorf("variance = %g, want %g", v, 32.0/7)
	}
	if md := Median(xs); md != 4.5 {
		t.Errorf("median = %g", md)
	}
	lo, hi := MinMax(xs)
	if lo != 2 || hi != 9 {
		t.Errorf("minmax = %g,%g", lo, hi)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 || Median(nil) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0.1, 0.2, 0.6, 0.9, -1, 2}, 0, 1, 2)
	// -1 clamps into bin 0, 2 clamps into bin 1.
	if h[0] != 3 || h[1] != 3 {
		t.Errorf("histogram = %v", h)
	}
	if Histogram(nil, 0, 0, 2) != nil {
		t.Error("hi<=lo should give nil")
	}
	if Histogram(nil, 0, 1, 0) != nil {
		t.Error("nbins<=0 should give nil")
	}
}

func TestFitBiNormalSeparatesModes(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	xs := make([]float64, 600)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = r.NormFloat64()*0.3 + 1
		} else {
			xs[i] = r.NormFloat64()*0.3 + 5
		}
	}
	fit := FitBiNormal(xs, 60)
	lo, hi := fit.Mu1, fit.Mu2
	if lo > hi {
		lo, hi = hi, lo
	}
	if math.Abs(lo-1) > 0.3 || math.Abs(hi-5) > 0.3 {
		t.Errorf("modes at %g, %g; want ~1 and ~5", lo, hi)
	}
	// CDF should be a valid distribution function.
	if c := fit.CDF(-100); c > 1e-6 {
		t.Errorf("CDF(-inf) = %g", c)
	}
	if c := fit.CDF(100); c < 1-1e-6 {
		t.Errorf("CDF(inf) = %g", c)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%g(1,1) = %g", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	if got := RegIncBeta(2, 3, 0.4) + RegIncBeta(3, 2, 0.6); math.Abs(got-1) > 1e-10 {
		t.Errorf("symmetry violated: %g", got)
	}
	if RegIncBeta(2, 2, 0) != 0 || RegIncBeta(2, 2, 1) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestFSurvival(t *testing.T) {
	// F(1, d1, d2) with d1=d2 has survival 0.5 by symmetry.
	if got := FSurvival(1, 10, 10); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("P(F>1) = %g, want 0.5", got)
	}
	// Critical value check: P(F_{2,20} > 3.49) ~ 0.05.
	if got := FSurvival(3.49, 2, 20); math.Abs(got-0.05) > 0.005 {
		t.Errorf("P(F_{2,20} > 3.49) = %g, want ~0.05", got)
	}
	if got := FSurvival(0, 2, 2); got != 1 {
		t.Errorf("P(F>0) = %g", got)
	}
}

func TestANOVADetectsRealEffect(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	var resp []float64
	var f1, f2 []int
	for i := 0; i < 120; i++ {
		a := i % 3 // factor 1: real effect
		b := i % 2 // factor 2: no effect
		y := float64(a)*2 + r.NormFloat64()*0.5
		resp = append(resp, y)
		f1 = append(f1, a)
		f2 = append(f2, b)
	}
	res, err := ANOVA(resp, [][]int{f1, f2}, []string{"real", "null"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Effects[0].Significant {
		t.Errorf("real effect not significant: p=%g", res.Effects[0].PValue)
	}
	if res.Effects[1].Significant {
		t.Errorf("null effect significant: p=%g", res.Effects[1].PValue)
	}
}

func TestANOVAValidation(t *testing.T) {
	if _, err := ANOVA([]float64{1}, nil, nil, 0.05); err == nil {
		t.Error("single observation should error")
	}
	if _, err := ANOVA([]float64{1, 2}, [][]int{{0}}, []string{"f"}, 0.05); err == nil {
		t.Error("mismatched factor length should error")
	}
	if _, err := ANOVA([]float64{1, 2}, [][]int{{0, 1}}, []string{"f", "g"}, 0.05); err == nil {
		t.Error("name/factor count mismatch should error")
	}
}

func BenchmarkKSRejectStatSorted(b *testing.B) {
	r := rand.New(rand.NewSource(14))
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = r.NormFloat64()
	}
	sortFloats(ref)
	mon := make([]float64, 32)
	for i := range mon {
		mon[i] = r.NormFloat64()
	}
	scratch := make([]float64, 64)
	cAlpha := KolmogorovInverse(0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KSRejectStatSorted(ref, mon, scratch, cAlpha)
	}
}

func TestADStatisticBasics(t *testing.T) {
	// Identical samples: small statistic; disjoint samples: large.
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	same := ADStatistic(a, a)
	far := ADStatistic(a, []float64{101, 102, 103, 104, 105, 106, 107, 108})
	if far <= same {
		t.Errorf("disjoint samples A2=%g should exceed identical samples A2=%g", far, same)
	}
	if ADStatistic(nil, a) != 0 || ADStatistic(a, nil) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestADTestCalibration(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	rejects := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		a := make([]float64, 40)
		b := make([]float64, 20)
		for j := range a {
			a[j] = r.NormFloat64()
		}
		for j := range b {
			b[j] = r.NormFloat64()
		}
		res, err := ADTest(a, b, 0.05, 199, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejects++
		}
	}
	// ~5% expected; allow up to 15%.
	if rejects > trials*15/100 {
		t.Errorf("%d/%d false rejections at alpha=0.05", rejects, trials)
	}
	// Power: a clear shift must be detected most of the time.
	detected := 0
	for i := 0; i < 20; i++ {
		a := make([]float64, 40)
		b := make([]float64, 20)
		for j := range a {
			a[j] = r.NormFloat64()
		}
		for j := range b {
			b[j] = r.NormFloat64() + 1.5
		}
		res, err := ADTest(a, b, 0.05, 199, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			detected++
		}
	}
	if detected < 16 {
		t.Errorf("only %d/20 1.5-sigma shifts detected", detected)
	}
}

func TestADTestTailSensitivity(t *testing.T) {
	// A contamination that moves only 15% of the mass far into the tail:
	// the A-D statistic should stand out more (relative to its same-
	// population value) than K-S does, reflecting its tail weighting.
	r := rand.New(rand.NewSource(22))
	a := make([]float64, 200)
	b := make([]float64, 100)
	for j := range a {
		a[j] = r.NormFloat64()
	}
	for j := range b {
		b[j] = r.NormFloat64()
		if j%4 == 0 {
			b[j] += 6 // 25% of points pushed into the far tail
		}
	}
	res, err := ADTest(a, b, 0.05, 199, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("tail contamination not detected: A2=%g p=%g", res.A2, res.PValue)
	}
}

func TestADTestValidation(t *testing.T) {
	if _, err := ADTest(nil, []float64{1}, 0.05, 199, 1); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := ADTest([]float64{1}, []float64{1}, 0, 199, 1); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := ADTest([]float64{1}, []float64{1}, 0.05, 5, 1); err == nil {
		t.Error("too few permutations accepted")
	}
}
