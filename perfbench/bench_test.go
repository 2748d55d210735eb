package main

import (
	"fmt"
	"testing"
)

// smokeRun runs one workload at the self-test size.
func smokeRun(t *testing.T, w *workload, seed int64, traced bool) (*runCtx, *result) {
	t.Helper()
	rc := &runCtx{seed: seed, seconds: 0.01, traced: traced, small: true}
	res, err := execute(w, rc)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d: %v", w.name, seed, res.Correct, res.Failed, rc.failures)
	}
	return rc, res
}

// TestWorkloadsSmoke runs every workload at a tiny size with two seeds:
// every named metric prints with its unit, the exact counts repeat for
// one seed and differ across seeds, and the traced run prints every
// per-layer metric.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.why == "" {
				t.Errorf("no reason recorded for %s", w.name)
			}
			a, res := smokeRun(t, w, 1, false)
			for name, unit := range e2eUnits {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("metric %s: got %+v, want unit %q", name, m, unit)
				}
				if m.Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, m.Value)
				}
			}
			if len(res.Metrics) != len(e2eUnits) {
				t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(e2eUnits))
			}
			b, _ := smokeRun(t, w, 1, false)
			if fmt.Sprint(passCountsOnly(a.counts)) != fmt.Sprint(passCountsOnly(b.counts)) {
				t.Errorf("counts differ for one seed:\n%v\n%v", a.counts, b.counts)
			}
			c, _ := smokeRun(t, w, 2, false)
			if fmt.Sprint(passCountsOnly(a.counts)) == fmt.Sprint(passCountsOnly(c.counts)) {
				t.Errorf("counts identical across seeds 1 and 2: %v", a.counts)
			}
			_, tres := smokeRun(t, w, 1, true)
			for name, unit := range layerUnits {
				if m, ok := tres.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("per-layer metric %s: got %+v, want unit %q", name, m, unit)
				}
			}
		})
	}
}

// passCountsOnly drops the counts that depend on how long the run
// lasted (how many passes fit), keeping the per-pass verdict counts.
func passCountsOnly(c map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range c {
		if k != "timed_passes" && k != "traced_passes" {
			out[k] = v
		}
	}
	return out
}
