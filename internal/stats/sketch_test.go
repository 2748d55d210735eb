package stats

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileSorted returns the q-quantile (q in [0,1]) of a sample already
// sorted ascending, with linear interpolation between adjacent order
// statistics. An empty sample yields 0. It is the interpolation
// BlendSorted inlines, kept as the reference blendSortedRef builds on.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// blendSortedRef is the reference BlendSorted is held to: one
// quantileSorted call per reference value, then a full Sort of ref.
func blendSortedRef(ref, obs []float64, rate, maxStepFrac, minSpan float64) float64 {
	if len(ref) == 0 || len(obs) == 0 || rate <= 0 {
		return 0
	}
	span := ref[len(ref)-1] - ref[0]
	if span < minSpan {
		span = minSpan
	}
	if span <= 0 {
		span = math.Abs(ref[0])
		if span == 0 {
			span = 1
		}
	}
	maxStep := maxStepFrac * span
	var total float64
	for i := range ref {
		q := (float64(i) + 0.5) / float64(len(ref))
		target := quantileSorted(obs, q)
		if math.IsNaN(target) || math.IsInf(target, 0) {
			continue
		}
		step := rate * (target - ref[i])
		if step > maxStep {
			step = maxStep
		} else if step < -maxStep {
			step = -maxStep
		}
		ref[i] += step
		total += math.Abs(step)
	}
	Sort(ref)
	return total / (float64(len(ref)) * span)
}

// TestQuantileSorted pins the reference's interpolation convention
// against hand computations and the edge clamps.
func TestQuantileSorted(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	cases := []struct{ q, want float64 }{
		{-1, 1}, {0, 1}, {1, 8}, {2, 8},
		{0.5, 3},       // midway between 2 and 4
		{1.0 / 3.0, 2}, // exactly the second order statistic
		{0.25, 1.75},   // pos 0.75 between 1 and 2
		{5.0 / 6.0, 6}, // pos 2.5 between 4 and 8
	}
	for _, c := range cases {
		if got := quantileSorted(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantileSorted(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantileSorted(nil, 0.5); got != 0 {
		t.Errorf("quantileSorted(empty) = %g, want 0", got)
	}
	if got := quantileSorted([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantileSorted(single) = %g, want 7", got)
	}
}

// TestBlendSortedConverges drives a reference sketch toward a shifted
// target distribution through repeated bounded blends: the sketch must
// converge to the target quantiles and stay sorted after every step.
func TestBlendSortedConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 32
	ref := make([]float64, n)
	target := make([]float64, 256)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	for i := range target {
		target[i] = 5 + 2*rng.NormFloat64()
	}
	Sort(ref)
	Sort(target)

	var total float64
	for step := 0; step < 400; step++ {
		total += BlendSorted(ref, target, 0.1, 0.05, 0)
		for i := 1; i < n; i++ {
			if ref[i] < ref[i-1] {
				t.Fatalf("step %d: reference left unsorted at %d", step, i)
			}
		}
	}
	if total <= 0 {
		t.Fatal("BlendSorted reported zero cumulative drift for a real shift")
	}
	// After convergence each sketch value should sit near its target
	// quantile (sampling noise in the 256-point target dominates).
	for i := range ref {
		q := (float64(i) + 0.5) / float64(n)
		want := quantileSorted(target, q)
		if math.Abs(ref[i]-want) > 0.5 {
			t.Errorf("sketch[%d] = %g, want ~%g (q=%.3f)", i, ref[i], want, q)
		}
	}
}

// TestBlendSortedStepBound verifies the contamination backstop: one
// update against an adversarially distant observation moves no value by
// more than maxStepFrac of the reference span.
func TestBlendSortedStepBound(t *testing.T) {
	ref := []float64{0, 1, 2, 3, 4} // span 4
	before := append([]float64(nil), ref...)
	obs := []float64{1e6, 1e6 + 1, 1e6 + 2}
	Sort(obs)
	const maxFrac = 0.05
	drift := BlendSorted(ref, obs, 1.0, maxFrac, 0)
	maxStep := maxFrac * 4
	for i := range ref {
		if d := math.Abs(ref[i] - before[i]); d > maxStep+1e-12 {
			t.Errorf("value %d moved %g, bound %g", i, d, maxStep)
		}
	}
	if drift > maxFrac+1e-12 {
		t.Errorf("normalized drift %g exceeds per-update bound %g", drift, maxFrac)
	}
}

// TestBlendSortedDegenerate covers empty inputs, zero rate, NaN targets
// and a constant reference.
func TestBlendSortedDegenerate(t *testing.T) {
	if d := BlendSorted(nil, []float64{1}, 0.5, 0.1, 0); d != 0 {
		t.Errorf("empty ref drift = %g", d)
	}
	if d := BlendSorted([]float64{1, 2}, nil, 0.5, 0.1, 0); d != 0 {
		t.Errorf("empty obs drift = %g", d)
	}
	if d := BlendSorted([]float64{1, 2}, []float64{3}, 0, 0.1, 0); d != 0 {
		t.Errorf("zero-rate drift = %g", d)
	}
	ref := []float64{2, 2, 2}
	BlendSorted(ref, []float64{math.NaN(), math.NaN()}, 0.5, 0.1, 0)
	for i, v := range ref {
		if v != 2 {
			t.Errorf("NaN obs moved ref[%d] to %g", i, v)
		}
	}
	// Constant reference: span falls back to |ref[0]|, blend still moves.
	ref = []float64{2, 2, 2}
	BlendSorted(ref, []float64{4, 4, 4}, 0.5, 1, 0)
	for i, v := range ref {
		if v <= 2 {
			t.Errorf("constant ref[%d] did not move toward target: %g", i, v)
		}
	}
}

// TestBlendSortedSpanFloor verifies that minSpan widens the step bound of
// a near-point-mass reference: with the natural span the sketch could
// barely move per update; with the floor it tracks a shifted target.
func TestBlendSortedSpanFloor(t *testing.T) {
	// Span 0.002 around 1000; target shifted by 1 (500 natural spans away).
	narrow := func() []float64 { return []float64{999.999, 1000, 1000.001} }
	obs := []float64{1000.999, 1001, 1001.001}

	ref := narrow()
	BlendSorted(ref, obs, 1.0, 0.05, 0)
	if moved := ref[1] - 1000; moved > 0.001 {
		t.Fatalf("floorless blend moved midpoint by %g; natural span bound broken", moved)
	}

	ref = narrow()
	BlendSorted(ref, obs, 1.0, 0.05, 10) // step bound now 0.05*10 = 0.5
	moved := ref[1] - 1000
	if moved < 0.4 || moved > 0.5+1e-9 {
		t.Errorf("floored blend moved midpoint by %g, want ~0.5", moved)
	}
}

// FuzzBlendSorted holds BlendSorted to blendSortedRef: on every input
// the drift and each reference value must be equal. Observation bytes
// 253, 254 and 255 decode to NaN, +Inf and -Inf. Reference bytes are
// sorted before the blend; observation bytes are sorted with Sort, as
// the monitor sorts its groups.
func FuzzBlendSorted(f *testing.F) {
	// The measured shapes: a pooled count/energy reference against a
	// 96-window group, and a per-rank mode reference against a group of
	// 12, at the adapt layer's step bound and span floor.
	f.Add(rampBytes(2300, 10), rampBytes(96, 30), 0.1, 0.05, 0.0)
	f.Add(rampBytes(380, 40), rampBytes(12, 41), 0.1, 0.05, 0.6)
	// m ≤ 48 and m > 48 (Sort's two paths), n = 1.
	f.Add(rampBytes(48, 0), []byte{200}, 0.5, 0.05, 0.0)
	f.Add(rampBytes(49, 0), []byte{3}, 0.5, 0.05, 0.0)
	f.Add([]byte{5}, []byte{9}, 1.0, 1.0, 0.0)
	// Steps past the target (rate > 1) next to steps clamped toward
	// it: values near the target overshoot past their clamped
	// neighbours, so the blend leaves ref out of order and the repair
	// pass must restore it (m > 48 and m ≤ 48).
	f.Add(rampBytes(60, 0), []byte{9, 9, 9}, 1.9, 0.1, 0.0)
	f.Add(rampBytes(30, 0), []byte{5}, 1.9, 0.2, 0.0)
	// Non-finite observations: NaN, +Inf and -Inf quantiles are skipped,
	// which also reorders ref when a moved neighbour passes one.
	f.Add(rampBytes(40, 0), []byte{1, 2, 253, 253, 80, 90}, 0.9, 1.0, 0.0)
	f.Add(rampBytes(100, 0), []byte{10, 20, 254}, 0.9, 1.0, 0.0)
	f.Add(rampBytes(100, 0), []byte{255, 20, 30}, 0.9, 1.0, 0.0)
	f.Add(rampBytes(70, 0), []byte{253, 254, 255}, 0.5, 0.05, 0.0)
	// Degenerate references: constant, and zero.
	f.Add(bytes.Repeat([]byte{7}, 30), []byte{9, 9}, 0.5, 0.05, 0.0)
	f.Add(bytes.Repeat([]byte{0}, 60), []byte{0, 1}, 0.5, 0.05, 0.0)
	f.Fuzz(func(t *testing.T, refB, obsB []byte, rate, maxStepFrac, minSpan float64) {
		if len(refB) == 0 || len(obsB) == 0 || len(refB)+len(obsB) > 4096 {
			t.Skip()
		}
		if !(rate > 0) || math.IsInf(rate, 0) {
			rate = 0.1
		}
		if !(maxStepFrac >= 0) || math.IsInf(maxStepFrac, 0) {
			maxStepFrac = 0.05
		}
		if !(minSpan >= 0) || math.IsInf(minSpan, 0) {
			minSpan = 0
		}
		ref := make([]float64, len(refB))
		for i, v := range refB {
			ref[i] = float64(v) / 3
		}
		Sort(ref)
		obs := make([]float64, len(obsB))
		for i, v := range obsB {
			switch v {
			case 253:
				obs[i] = math.NaN()
			case 254:
				obs[i] = math.Inf(1)
			case 255:
				obs[i] = math.Inf(-1)
			default:
				obs[i] = float64(v) / 3
			}
		}
		Sort(obs)
		want := append([]float64(nil), ref...)
		wantDrift := blendSortedRef(want, obs, rate, maxStepFrac, minSpan)
		gotDrift := BlendSorted(ref, obs, rate, maxStepFrac, minSpan)
		if gotDrift != wantDrift {
			t.Fatalf("m=%d n=%d: drift %v, reference %v", len(ref), len(obs), gotDrift, wantDrift)
		}
		for i := range ref {
			if ref[i] != want[i] {
				t.Fatalf("m=%d n=%d: ref[%d] = %v, reference %v", len(ref), len(obs), i, ref[i], want[i])
			}
		}
	})
}

// blendSummaryRef is the summary definition BlendSummary is held to,
// written as blendSortedRef writes the sample blend: each of the three
// points moves rate of the way toward quantileSorted(obs, q), clamped to
// maxStepFrac of the span, at q = 0.5/N for Min, 0.5 for Median and
// (N−0.5)/N for Max; the ends are then put in order and the Median
// clamped between them. The drift is the three steps' mean size over
// the span.
func blendSummaryRef(s Summary, obs []float64, rate, maxStepFrac, minSpan float64) (Summary, float64) {
	if s.N == 0 || len(obs) == 0 || rate <= 0 {
		return s, 0
	}
	span := s.Max - s.Min
	if span < minSpan {
		span = minSpan
	}
	if span <= 0 {
		span = math.Abs(s.Min)
		if span == 0 {
			span = 1
		}
	}
	maxStep := maxStepFrac * span
	var total float64
	move := func(x *float64, q float64) {
		target := quantileSorted(obs, q)
		if math.IsNaN(target) || math.IsInf(target, 0) {
			return
		}
		step := math.Max(-maxStep, math.Min(maxStep, rate*(target-*x)))
		*x += step
		total += math.Abs(step)
	}
	n := float64(s.N)
	move(&s.Min, 0.5/n)
	move(&s.Median, 0.5)
	move(&s.Max, (float64(s.N-1)+0.5)/n)
	if s.Max < s.Min {
		s.Min, s.Max = s.Max, s.Min
	}
	s.Median = math.Max(s.Min, math.Min(s.Median, s.Max))
	return s, total / (3 * span)
}

// FuzzBlendSummary holds BlendSummary to the sample blend it stands in
// for. The sample is blended by BlendSorted and, separately, by the
// same per-value steps without the repair pass. Whenever those steps
// leave the sample ordered, the blended summary's Min and Max must equal
// the blended sample's ends bit for bit, and for odd N its Median the
// sample's middle value. On every input the summary must equal
// blendSummaryRef, drift included, keep Min <= Median <= Max and keep N.
// Inputs decode as in FuzzBlendSorted.
func FuzzBlendSummary(f *testing.F) {
	f.Add(rampBytes(2300, 10), rampBytes(96, 30), 0.1, 0.05, 0.0)
	f.Add(rampBytes(380, 40), rampBytes(12, 41), 0.1, 0.05, 0.6)
	f.Add(rampBytes(49, 0), []byte{3}, 0.5, 0.05, 0.0)
	f.Add([]byte{5}, []byte{9}, 1.0, 1.0, 0.0)
	f.Add([]byte{5, 9}, []byte{0, 250}, 1.0, 1.0, 0.0)
	f.Add(rampBytes(60, 0), []byte{9, 9, 9}, 1.9, 0.1, 0.0)
	f.Add(rampBytes(30, 0), []byte{5}, 1.9, 0.2, 0.0)
	f.Add(rampBytes(40, 0), []byte{1, 2, 253, 253, 80, 90}, 0.9, 1.0, 0.0)
	f.Add(rampBytes(100, 0), []byte{10, 20, 254}, 0.9, 1.0, 0.0)
	f.Add(rampBytes(100, 0), []byte{255, 20, 30}, 0.9, 1.0, 0.0)
	f.Add(bytes.Repeat([]byte{7}, 31), []byte{9, 9}, 0.5, 0.05, 0.0)
	f.Add(bytes.Repeat([]byte{0}, 60), []byte{0, 1}, 0.5, 0.05, 0.0)
	f.Fuzz(func(t *testing.T, refB, obsB []byte, rate, maxStepFrac, minSpan float64) {
		if len(refB) == 0 || len(obsB) == 0 || len(refB)+len(obsB) > 4096 {
			t.Skip()
		}
		if !(rate > 0) || math.IsInf(rate, 0) {
			rate = 0.1
		}
		if !(maxStepFrac >= 0) || math.IsInf(maxStepFrac, 0) {
			maxStepFrac = 0.05
		}
		if !(minSpan >= 0) || math.IsInf(minSpan, 0) {
			minSpan = 0
		}
		ref := make([]float64, len(refB))
		for i, v := range refB {
			ref[i] = float64(v) / 3
		}
		Sort(ref)
		obs := make([]float64, len(obsB))
		for i, v := range obsB {
			switch v {
			case 253:
				obs[i] = math.NaN()
			case 254:
				obs[i] = math.Inf(1)
			case 255:
				obs[i] = math.Inf(-1)
			default:
				obs[i] = float64(v) / 3
			}
		}
		Sort(obs)
		n := len(ref)
		s := Summarize(ref)
		want, wantDrift := blendSummaryRef(s, obs, rate, maxStepFrac, minSpan)
		gotDrift := BlendSummary(&s, obs, rate, maxStepFrac, minSpan)
		if s != want || gotDrift != wantDrift {
			t.Fatalf("n=%d m=%d: summary %+v drift %v, reference %+v drift %v", n, len(obs), s, gotDrift, want, wantDrift)
		}
		if s.N != n || !(s.Min <= s.Median && s.Median <= s.Max) {
			t.Fatalf("n=%d m=%d: blended summary %+v lost its shape", n, len(obs), s)
		}

		// The unrepaired sweep: blendSortedRef's steps without its Sort.
		raw := append([]float64(nil), ref...)
		span := blendSpan(ref[0], ref[n-1], minSpan)
		for i := range raw {
			target := quantileSorted(obs, (float64(i)+0.5)/float64(n))
			if math.IsNaN(target) || math.IsInf(target, 0) {
				continue
			}
			raw[i] += math.Max(-maxStepFrac*span, math.Min(maxStepFrac*span, rate*(target-raw[i])))
		}
		sample := append([]float64(nil), ref...)
		BlendSorted(sample, obs, rate, maxStepFrac, minSpan)
		if !sort.Float64sAreSorted(raw) {
			return // the rounding-reorder exception: the repair pass fired
		}
		if s.Min != sample[0] || s.Max != sample[n-1] {
			t.Fatalf("n=%d m=%d: summary ends [%v, %v], blended sample ends [%v, %v]", n, len(obs), s.Min, s.Max, sample[0], sample[n-1])
		}
		if n%2 == 1 && s.Median != sample[n/2] {
			t.Fatalf("n=%d m=%d: summary median %v, blended sample median %v", n, len(obs), s.Median, sample[n/2])
		}
	})
}

// BenchmarkBlendSorted times one blend at the adapt layer's two
// measured shapes: a pooled count/energy reference of ~2300 values
// against a 96-window group, and a per-rank mode reference of ~380
// values against a group of 12.
func BenchmarkBlendSorted(b *testing.B) {
	for _, sh := range []struct {
		name string
		m, n int
	}{
		{"m2300n96", 2300, 96},
		{"m380n12", 380, 12},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			ref := make([]float64, sh.m)
			obs := make([]float64, sh.n)
			for i := range ref {
				ref[i] = 100 + 10*rng.NormFloat64()
			}
			for i := range obs {
				obs[i] = 101 + 10*rng.NormFloat64()
			}
			Sort(ref)
			Sort(obs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BlendSorted(ref, obs, 0.1, 0.05, 0)
			}
		})
	}
}
