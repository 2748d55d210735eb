package core_test

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"eddie/internal/allocguard"
	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/metrics"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// adaptStream builds a long monitored stream by repeating the tiny
// fixture's clean run and applying a per-window transform: scale
// multiplies every peak frequency (the STS-level effect of clock skew)
// by a factor interpolated from 1 at the stream start to 1+maxScale at
// the end. The returned windows own their slices.
func adaptStream(tb testing.TB, repeats int, maxScale float64) []core.STS {
	tb.Helper()
	f := pipetest.Tiny(tb)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 900, nil)
	if err != nil {
		tb.Fatal(err)
	}
	total := repeats * len(run.STS)
	out := make([]core.STS, 0, total)
	for r := 0; r < repeats; r++ {
		for i := range run.STS {
			w := run.STS[i]
			frac := float64(len(out)) / float64(total-1)
			s := 1 + maxScale*frac
			pf := make([]float64, len(w.PeakFreqs))
			for k, v := range w.PeakFreqs {
				pf[k] = v * s
			}
			w.PeakFreqs = pf
			out = append(out, w)
		}
	}
	return out
}

// feedAll observes every window and returns how many came back flagged.
func feedAll(m *core.Monitor, sts []core.STS) int {
	flagged := 0
	for i := range sts {
		m.Observe(&sts[i])
		if m.Outcomes[len(m.Outcomes)-1].Flagged {
			flagged++
		}
	}
	return flagged
}

// TestAdaptConfigValidation pins the parameter ranges NewMonitor accepts.
func TestAdaptConfigValidation(t *testing.T) {
	f := pipetest.Tiny(t)
	bad := []core.AdaptConfig{
		{Enabled: true, Rate: 1.5},
		{Enabled: true, Rate: -0.1},
		{Enabled: true, MinCleanStreak: -1},
	}
	for i, ac := range bad {
		mcfg := core.DefaultMonitorConfig()
		mcfg.Adapt = ac
		if _, err := core.NewMonitor(f.Model, mcfg); err == nil {
			t.Errorf("case %d: invalid adapt config %+v accepted", i, ac)
		}
	}
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true}
	m, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		t.Fatalf("default adapt config rejected: %v", err)
	}
	if !m.AdaptEnabled() {
		t.Error("AdaptEnabled() false after enabling adaptation")
	}
}

// TestAdaptEngagesOnCleanStream verifies that a stationary clean stream
// feeds the adaptive reference (updates flow) without making the monitor
// any noisier than the static one.
func TestAdaptEngagesOnCleanStream(t *testing.T) {
	f := pipetest.Tiny(t)
	sts := adaptStream(t, 4, 0)

	static, err := core.NewMonitor(f.Model, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true}
	st := metrics.NewDetector()
	mcfg.Stats = st
	adaptive, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	fs := feedAll(static, sts)
	fa := feedAll(adaptive, sts)
	if adaptive.AdaptUpdates() == 0 {
		t.Error("no reference updates admitted over a long clean stream")
	}
	if fa > fs {
		t.Errorf("adaptive monitor flagged %d clean windows, static %d", fa, fs)
	}
	// A stationary stream should move the reference barely at all: the
	// blend pulls toward quantiles the reference already matches, so the
	// drift stays below the per-update step bound (0.05 of a span).
	if d := adaptive.AdaptDrift(); d > float64(adaptive.AdaptUpdates())*0.05 {
		t.Errorf("stationary-stream drift %g implausibly large for %d updates", d, adaptive.AdaptUpdates())
	}
	// The Stats hook publishes every admitted update: the counter and the
	// total match the monitor's own accounting, and the per-region
	// gauges, one per model region that admitted an update, add up to
	// the total.
	if got := st.AdaptUpdates.Value(); got != adaptive.AdaptUpdates() {
		t.Errorf("adapt_updates %d, monitor reports %d", got, adaptive.AdaptUpdates())
	}
	if got := st.AdaptDrift.Value(); got != adaptive.AdaptDrift() {
		t.Errorf("adapt_drift %g, monitor reports %g", got, adaptive.AdaptDrift())
	}
	var sum float64
	gauges := 0
	for name, v := range st.Reg.Snapshot() {
		id, ok := strings.CutPrefix(name, "region_adapt_drift/R")
		if !ok {
			continue
		}
		if !slices.Contains(f.Model.RegionIDs(), cfg.RegionID(mustAtoi(t, id))) {
			t.Errorf("gauge %s names no model region", name)
		}
		sum += float64(v.(metrics.FloatGaugeValue))
		gauges++
	}
	if gauges == 0 {
		t.Fatal("no region_adapt_drift gauges after admitted updates")
	}
	if d := adaptive.AdaptDrift(); math.Abs(sum-d) > 1e-9*math.Max(1, d) {
		t.Errorf("region_adapt_drift gauges add up to %g, total drift %g", sum, d)
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAdaptTracksSlowDrift is the tentpole's core claim at unit scale: a
// slowly accelerating peak-frequency drift (the STS-level picture of
// clock skew) degrades the static monitor while the adaptive one tracks
// it. The second half of the ramp is where the static reference has
// fallen behind; the adaptive monitor must flag strictly fewer windows
// there and fewer overall.
func TestAdaptTracksSlowDrift(t *testing.T) {
	f := pipetest.Tiny(t)
	sts := adaptStream(t, 8, 0.008)

	static, err := core.NewMonitor(f.Model, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true, Rate: 0.1, MinCleanStreak: 8}
	adaptive, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	half := len(sts) / 2
	sFlagged1 := feedAll(static, sts[:half])
	aFlagged1 := feedAll(adaptive, sts[:half])
	sFlagged2 := feedAll(static, sts[half:])
	aFlagged2 := feedAll(adaptive, sts[half:])

	t.Logf("static flagged: %d then %d; adaptive flagged: %d then %d (updates=%d drift=%.3f)",
		sFlagged1, sFlagged2, aFlagged1, aFlagged2, adaptive.AdaptUpdates(), adaptive.AdaptDrift())
	if sFlagged2 == 0 {
		t.Fatal("drift ramp did not degrade the static monitor; the test exercises nothing")
	}
	if aFlagged2 >= sFlagged2 {
		t.Errorf("adaptive monitor flagged %d windows under max drift, static %d", aFlagged2, sFlagged2)
	}
	if total, stotal := aFlagged1+aFlagged2, sFlagged1+sFlagged2; total >= stotal {
		t.Errorf("adaptive flagged %d total, static %d", total, stotal)
	}
	if adaptive.AdaptDrift() == 0 {
		t.Error("adaptive monitor reports zero drift after tracking a real ramp")
	}
}

// TestAdaptContaminationGuard proves the acceptance criterion: a stream
// of anomalous windows cannot pull the adaptive reference toward the
// anomaly. The monitor rejects every anomalous group, so the clean
// streak never opens the gate, zero updates are admitted, and the
// adaptive monitor's verdicts — on the anomalous stream AND on a
// subsequent clean stream — are bit-identical to the static monitor's.
func TestAdaptContaminationGuard(t *testing.T) {
	f := pipetest.Tiny(t)
	clean := adaptStream(t, 2, 0)
	// A gross anomaly shaped like real injected code: the loop retimed
	// (every peak shifted 30%) plus the injected activity's own spectral
	// content (a dozen extra peaks), so every region's count bounds and
	// tight ranks reject it.
	anom := make([]core.STS, len(clean))
	for i := range clean {
		w := clean[i]
		pf := make([]float64, 0, len(w.PeakFreqs)+12)
		for _, v := range w.PeakFreqs {
			pf = append(pf, v*1.3)
		}
		base := 1e5
		if len(pf) > 0 {
			base = pf[len(pf)-1]
		}
		for k := 0; k < 12; k++ {
			pf = append(pf, base*(1.05+0.05*float64(k)))
		}
		w.PeakFreqs = pf
		anom[i] = w
	}

	static, err := core.NewMonitor(f.Model, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true, MinCleanStreak: 2}
	adaptive, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	feedAll(static, anom)
	feedAll(adaptive, anom)
	if u := adaptive.AdaptUpdates(); u != 0 {
		t.Fatalf("anomalous stream admitted %d reference updates, want 0", u)
	}
	if d := adaptive.AdaptDrift(); d != 0 {
		t.Fatalf("anomalous stream moved the reference by %g, want 0", d)
	}

	// Subsequent clean stream: verdict-for-verdict identical. With zero
	// updates admitted the shadow references equal the trained ones, so
	// any divergence here means the anomaly taught the monitor something.
	feedAll(static, clean)
	feedAll(adaptive, clean)
	so, ao := static.Outcomes, adaptive.Outcomes
	if len(so) != len(ao) {
		t.Fatalf("outcome lengths diverge: %d vs %d", len(so), len(ao))
	}
	for i := range so {
		if so[i] != ao[i] {
			t.Fatalf("window %d: static %+v vs adaptive %+v after contaminated pre-stream", i, so[i], ao[i])
		}
	}
	if len(static.Reports) != len(adaptive.Reports) {
		t.Fatalf("report counts diverge: %d vs %d", len(static.Reports), len(adaptive.Reports))
	}
}

// TestAdaptGuardedIsBitIdentical locks the mechanism behind the
// disabled-path guarantee: an adaptive monitor whose guards never admit
// an update makes bit-identical decisions to the static monitor on an
// arbitrary stream (here: drifting, so plenty of marginal verdicts).
func TestAdaptGuardedIsBitIdentical(t *testing.T) {
	f := pipetest.Tiny(t)
	sts := adaptStream(t, 4, 0.006)

	static, err := core.NewMonitor(f.Model, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true, MinCleanStreak: 1 << 30}
	adaptive, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	feedAll(static, sts)
	feedAll(adaptive, sts)
	if adaptive.AdaptUpdates() != 0 {
		t.Fatalf("guard admitted %d updates", adaptive.AdaptUpdates())
	}
	for i := range static.Outcomes {
		if static.Outcomes[i] != adaptive.Outcomes[i] {
			t.Fatalf("window %d: outcomes diverge with a closed update gate", i)
		}
	}
}

// TestObserveAdaptiveSteadyStateZeroAlloc extends the zero-alloc
// guarantee to the enabled path, Stats hooks attached: once every
// visited region's shadow and gauge exist, the decide-and-update loop
// allocates nothing. Each measured run is a whole pass over the stream
// (trimmed back so the outcome history stops growing), not one window:
// updates land on only some windows, so a per-window run would hide an
// allocation per update.
func TestObserveAdaptiveSteadyStateZeroAlloc(t *testing.T) {
	mcfg := core.DefaultMonitorConfig()
	mcfg.Adapt = core.AdaptConfig{Enabled: true, MinCleanStreak: 4}
	mcfg.Stats = metrics.NewDetector()
	mon, sts := monitorFeed(t, mcfg)
	before := mon.AdaptUpdates()
	allocguard.Zero(t, "adaptive Observe", 10, len(sts), func(i int) {
		mon.Observe(&sts[i])
		if i == len(sts)-1 {
			mon.TrimHistory(len(sts))
		}
	})
	if mon.AdaptUpdates() == before {
		t.Error("steady-state loop admitted no updates; the measurement missed the update path")
	}
}
