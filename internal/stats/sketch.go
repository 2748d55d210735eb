package stats

import "math"

// BlendSorted nudges a sorted reference sample toward the empirical
// quantiles of a sorted observed sample, in place and without
// allocating. Each reference value ref[i] — the (i+0.5)/len(ref)
// quantile of the reference distribution — moves a fraction rate of the
// way toward the same quantile of obs, with the per-value step bounded
// to maxStepFrac of the reference span. The bound is the contamination
// guard's backstop: even an adversarial observation admitted past the
// K-S gate can move the reference only a bounded distance per update.
//
// The effective span is floored at minSpan (pass 0 for pure span
// semantics): a near-point-mass reference has a span orders of magnitude
// below its position, and a purely span-relative step bound would freeze
// it in place; callers that need such references to track slow drift pass
// a floor proportional to the reference's magnitude.
//
// ref stays sorted. In exact arithmetic no step can reorder it: with
// rate in (0, 1] the blended value, clamped or not, is nondecreasing in
// both the old value and its target. Rounding between nearly equal
// values and a skipped non-finite target can still put a neighbour out
// of order, so the sweep checks every adjacent pair and, only when one
// came out of order, repairs ref with one insertion pass — it remains a
// valid presorted K-S reference without a full sort per update. The
// return value is the mean absolute shift normalized by the effective
// span — the per-update drift distance, accumulated by callers into
// drift telemetry. Non-finite observation quantiles leave the
// corresponding reference value untouched.
//
// Each target is the (i+0.5)/len(ref) quantile of obs, linearly
// interpolated between adjacent order statistics. ref must be sorted
// ascending and free of NaN.
func BlendSorted(ref, obs []float64, rate, maxStepFrac, minSpan float64) float64 {
	if len(ref) == 0 || len(obs) == 0 || rate <= 0 {
		return 0
	}
	span := blendSpan(ref[0], ref[len(ref)-1], minSpan)
	maxStep := maxStepFrac * span
	m := float64(len(ref))
	scale := float64(len(obs) - 1)
	var total float64
	prev := math.Inf(-1)
	ordered := true
	for i := range ref {
		var step float64
		ref[i], step = blendPoint(ref[i], quantileAt(obs, (float64(i)+0.5)/m*scale), rate, maxStep)
		total += step
		if ref[i] < prev {
			ordered = false
		}
		prev = ref[i]
	}
	if !ordered {
		insertionSort(ref)
	}
	return total / (float64(len(ref)) * span)
}

// blendSpan is the blend's step-bound and drift-normalization span for a
// reference whose ends are lo and hi: hi−lo floored at minSpan, and for
// a degenerate (constant) reference its magnitude, or 1 at zero.
func blendSpan(lo, hi, minSpan float64) float64 {
	span := hi - lo
	if span < minSpan {
		span = minSpan
	}
	if span <= 0 {
		span = math.Abs(lo)
		if span == 0 {
			span = 1
		}
	}
	return span
}

// blendPoint is the blend's one per-point step: it moves x a fraction
// rate of the way toward target, the step clamped to ±maxStep, and
// returns the moved value and the step's size. A non-finite target
// leaves x in place with a zero step.
func blendPoint(x, target, rate, maxStep float64) (float64, float64) {
	if target-target != 0 { // true for NaN and ±Inf
		return x, 0
	}
	step := rate * (target - x)
	if step > maxStep {
		step = maxStep
	} else if step < -maxStep {
		step = -maxStep
	}
	return x + step, math.Abs(step)
}

// quantileAt reads sorted obs at order-statistic position pos in
// [0, len(obs)−1], linearly interpolated between adjacent values: the
// blend's target for the point at that quantile.
func quantileAt(obs []float64, pos float64) float64 {
	last := len(obs) - 1
	if lo := int(pos); lo < last {
		return obs[lo] + (pos-float64(lo))*(obs[lo+1]-obs[lo])
	}
	return obs[last]
}

// Summary is the digest of a sorted sample that a range test reads: its
// length, its ends and its median. The monitor's count and energy tests
// compare a group's median against bounds built from Min and Max.
type Summary struct {
	N                int
	Min, Median, Max float64
}

// Summarize digests a sample sorted ascending; an empty sample yields
// the zero Summary.
func Summarize(sorted []float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	return Summary{N: len(sorted), Min: sorted[0], Median: MedianSorted(sorted), Max: sorted[len(sorted)-1]}
}

// BlendSummary applies BlendSorted's rule to the sample s summarizes,
// in place, without the sample. Min and Max move exactly as BlendSorted
// moves ref[0] and ref[N−1]: the same span, step bound, quantile
// positions 0.5/N and (N−0.5)/N and target interpolation, through the
// same per-point step. So whenever BlendSorted's sweep leaves the sample
// in order, the blended summary's ends equal the blended sample's ends
// bit for bit. The Median moves toward obs's 0.5 quantile by the same
// rule. If rounding reverses the ends they are swapped back, and the
// Median is clamped into [Min, Max], the summary's counterpart of
// BlendSorted's insertion repair.
//
// The return value is the summary's drift: the mean absolute step of its
// three points (Min, Median, Max), normalized by the effective span.
// It is BlendSorted's drift definition averaged over the summary points
// instead of over every sample value.
func BlendSummary(s *Summary, obs []float64, rate, maxStepFrac, minSpan float64) float64 {
	if s.N == 0 || len(obs) == 0 || rate <= 0 {
		return 0
	}
	span := blendSpan(s.Min, s.Max, minSpan)
	maxStep := maxStepFrac * span
	m := float64(s.N)
	scale := float64(len(obs) - 1)
	var lo, mid, hi float64
	s.Min, lo = blendPoint(s.Min, quantileAt(obs, 0.5/m*scale), rate, maxStep)
	s.Median, mid = blendPoint(s.Median, quantileAt(obs, 0.5*scale), rate, maxStep)
	s.Max, hi = blendPoint(s.Max, quantileAt(obs, (float64(s.N-1)+0.5)/m*scale), rate, maxStep)
	if s.Max < s.Min {
		s.Min, s.Max = s.Max, s.Min
	}
	s.Median = math.Min(math.Max(s.Median, s.Min), s.Max)
	return (lo + mid + hi) / (3 * span)
}
