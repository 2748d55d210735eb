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
	span := ref[len(ref)-1] - ref[0]
	if span < minSpan {
		span = minSpan
	}
	if span <= 0 {
		// Degenerate (constant) reference: fall back to its magnitude so
		// the step bound and drift normalization stay meaningful.
		span = math.Abs(ref[0])
		if span == 0 {
			span = 1
		}
	}
	maxStep := maxStepFrac * span
	m := float64(len(ref))
	last := len(obs) - 1
	scale := float64(last)
	var total float64
	prev := math.Inf(-1)
	ordered := true
	for i := range ref {
		pos := (float64(i) + 0.5) / m * scale
		lo := int(pos)
		target := obs[last]
		if lo < last {
			target = obs[lo] + (pos-float64(lo))*(obs[lo+1]-obs[lo])
		}
		if target-target == 0 { // false for NaN and ±Inf
			step := rate * (target - ref[i])
			if step > maxStep {
				step = maxStep
			} else if step < -maxStep {
				step = -maxStep
			}
			ref[i] += step
			total += math.Abs(step)
		}
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
