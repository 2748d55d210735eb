package experiments

import (
	"io"
	"os"
	"strings"
	"testing"

	"eddie/internal/metrics"
	"eddie/internal/pipeline"
)

// TestQuickRobustness runs the robustness sweep at quick scale and
// checks the qualitative shape the experiment exists to demonstrate:
// accuracy degrades as SNR falls, and the clean baseline detects.
func TestQuickRobustness(t *testing.T) {
	e := sharedQuickEnv()
	res, err := Robustness(e, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.DetectionPct == 0 {
		t.Error("baseline detects nothing")
	}
	if res.Baseline.AccuracyPct < 50 {
		t.Errorf("baseline accuracy %.1f%% below 50%%", res.Baseline.AccuracyPct)
	}

	// Monotone trend: highest SNR must beat lowest, and no step may rise
	// by more than a small tolerance (run-to-run noise at quick scale).
	snr := res.SNR
	if len(snr) < 3 {
		t.Fatalf("SNR sweep has %d points", len(snr))
	}
	first, last := snr[0], snr[len(snr)-1]
	if first.AccuracyPct <= last.AccuracyPct {
		t.Errorf("accuracy did not degrade with SNR: %.1f%% at %g dB vs %.1f%% at %g dB",
			first.AccuracyPct, first.SNRdB, last.AccuracyPct, last.SNRdB)
	}
	const tol = 5.0 // percentage points
	for i := 1; i < len(snr); i++ {
		if snr[i].SNRdB >= snr[i-1].SNRdB {
			t.Fatalf("SNR grid not descending at %d", i)
		}
		if snr[i].AccuracyPct > snr[i-1].AccuracyPct+tol {
			t.Errorf("accuracy rose from %.1f%% (%g dB) to %.1f%% (%g dB)",
				snr[i-1].AccuracyPct, snr[i-1].SNRdB, snr[i].AccuracyPct, snr[i].SNRdB)
		}
	}
	// Effectively-clean AWGN should track the baseline closely.
	if d := snr[0].AccuracyPct - res.Baseline.AccuracyPct; d > 1 || d < -1 {
		t.Errorf("120 dB AWGN shifted accuracy by %.1f points from baseline", d)
	}

	if len(res.Impairments) == 0 {
		t.Fatal("no impairment severity points")
	}
	if res.Stream.Windows == 0 {
		t.Error("stream leg processed no windows")
	}
	if res.Stream.TruePositives == 0 {
		t.Error("stream leg found no true positives on an injected run")
	}
	if len(res.Stream.Metrics) == 0 {
		t.Error("stream leg metrics snapshot empty")
	}

	// Drift leg: the adaptive detector must be no worse than the static
	// one at every severity rung, the ramp must actually degrade the
	// static detector, and the static-vs-adaptive gap must be widest at
	// maximum drift (the tentpole's acceptance criterion).
	seg := res.Drift.Segments
	if len(seg) < 3 {
		t.Fatalf("drift leg has %d segments", len(seg))
	}
	for i, p := range seg {
		if p.Windows == 0 {
			t.Fatalf("drift segment %d (%s) judged no windows", i, p.Impairment)
		}
		if p.AdaptiveFlagged > p.StaticFlagged {
			t.Errorf("%s: adaptive flagged %d clean windows, static %d",
				p.Impairment, p.AdaptiveFlagged, p.StaticFlagged)
		}
	}
	dFirst, dTop := seg[0], seg[len(seg)-1]
	if dTop.StaticFlagged <= dFirst.StaticFlagged {
		t.Errorf("drift ramp did not degrade the static detector: %d flagged at %g ppm vs %d at %g ppm",
			dTop.StaticFlagged, dTop.PPM, dFirst.StaticFlagged, dFirst.PPM)
	}
	firstGap := dFirst.StaticFlagged - dFirst.AdaptiveFlagged
	topGap := dTop.StaticFlagged - dTop.AdaptiveFlagged
	if topGap <= firstGap {
		t.Errorf("adaptive advantage did not widen with drift: gap %d at %g ppm vs %d at %g ppm",
			topGap, dTop.PPM, firstGap, dFirst.PPM)
	}
	if res.Drift.AdaptUpdates == 0 {
		t.Error("drift leg admitted no adaptive reference updates")
	}
	if res.Drift.AdaptDrift == 0 {
		t.Error("drift leg tracked a real ramp but reports zero cumulative drift")
	}
}

// TestRobustnessDeterministic re-runs the experiment and expects
// identical results: everything is seeded, so any drift is a
// reproducibility bug in the impairment or reduction path.
func TestRobustnessDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	e := sharedQuickEnv()
	a, err := Robustness(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Robustness(e, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SNR) != len(b.SNR) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(a.SNR), len(b.SNR))
	}
	for i := range a.SNR {
		if a.SNR[i] != b.SNR[i] {
			t.Errorf("SNR point %d differs between runs:\n%+v\n%+v", i, a.SNR[i], b.SNR[i])
		}
	}
	for i := range a.Impairments {
		if a.Impairments[i] != b.Impairments[i] {
			t.Errorf("impairment point %d differs between runs:\n%+v\n%+v", i, a.Impairments[i], b.Impairments[i])
		}
	}
	if len(a.Drift.Segments) != len(b.Drift.Segments) {
		t.Fatalf("drift leg sizes differ: %d vs %d", len(a.Drift.Segments), len(b.Drift.Segments))
	}
	for i := range a.Drift.Segments {
		if a.Drift.Segments[i] != b.Drift.Segments[i] {
			t.Errorf("drift segment %d differs between runs:\n%+v\n%+v", i, a.Drift.Segments[i], b.Drift.Segments[i])
		}
	}
	if a.Drift.AdaptUpdates != b.Drift.AdaptUpdates || a.Drift.AdaptDrift != b.Drift.AdaptDrift {
		t.Errorf("drift accounting differs between runs: %d/%g vs %d/%g",
			a.Drift.AdaptUpdates, a.Drift.AdaptDrift, b.Drift.AdaptUpdates, b.Drift.AdaptDrift)
	}
}

// TestRobustnessStreamOwnsMetrics: the online leg's metrics snapshot
// carries the monitor's counters even when the environment's monitor
// config already has a Stats hook (as eddie -experiment robustness
// -metrics sets), because the leg reports its own bundle.
func TestRobustnessStreamOwnsMetrics(t *testing.T) {
	e := sharedQuickEnv()
	tr, err := e.train("bitcount", e.Sim, e.TrainRunsSim)
	if err != nil {
		t.Fatal(err)
	}
	run, err := pipeline.CollectRun(tr.w, tr.machine, e.Sim, injectionRunBase, robustnessAttack(tr))
	if err != nil {
		t.Fatal(err)
	}
	// A view of the shared env whose monitor config carries a Stats hook,
	// leaving the shared env itself untouched.
	withStats := &Env{Sim: e.Sim, MonitorCfg: e.MonitorCfg}
	withStats.MonitorCfg.Stats = metrics.NewDetector()
	str, err := robustnessStream(withStats, tr, run)
	if err != nil {
		t.Fatal(err)
	}
	if str.Reports == 0 {
		t.Fatal("injected run fired no reports; the check below is vacuous")
	}
	if got := str.Metrics["ks_tests"]; got == nil || got.(int64) == 0 {
		t.Errorf("stream leg ks_tests = %v with an inherited Stats hook", got)
	}
	if got := str.Metrics["reports_fired"]; got == nil || got.(int64) != int64(str.Reports) {
		t.Errorf("stream leg reports_fired = %v, leg fired %d", got, str.Reports)
	}
	regions := 0
	for name := range str.Metrics {
		if strings.HasPrefix(name, "region_windows/R") {
			regions++
		}
	}
	if regions == 0 {
		t.Error("stream leg metrics have no region_windows/R* counters with an inherited Stats hook")
	}
}
