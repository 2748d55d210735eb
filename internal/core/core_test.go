package core

import (
	"math/rand"
	"testing"

	"eddie/internal/cfg"
	"eddie/internal/isa"
	"eddie/internal/stats"
)

// testMachine builds a two-nest machine for synthetic-data tests.
func testMachine(t testing.TB) *cfg.Machine {
	t.Helper()
	b := isa.NewBuilder("synthetic", 4)
	entry := b.NewBlock("entry")
	h1 := b.NewBlock("h1")
	b1 := b.NewBlock("b1")
	mid := b.NewBlock("mid")
	h2 := b.NewBlock("h2")
	b2 := b.NewBlock("b2")
	exit := b.NewBlock("exit")
	entry.Li(1, 10).Li(0, 0)
	entry.Jump(h1)
	h1.Branch(isa.GT, 1, 0, b1, mid)
	b1.SubI(1, 1, 1)
	b1.Jump(h1)
	mid.Li(1, 10)
	mid.Jump(h2)
	h2.Branch(isa.GT, 1, 0, b2, exit)
	b2.SubI(1, 1, 1)
	b2.Jump(h2)
	exit.Halt()
	m, err := cfg.BuildMachine(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// synthSTS makes a window with peaks at the given base frequency's
// harmonics, jittered by the rng.
func synthSTS(r *rand.Rand, region cfg.RegionID, baseHz float64, nPeaks int, timeSec float64) STS {
	freqs := make([]float64, nPeaks)
	for k := range freqs {
		freqs[k] = baseHz*float64(k+1) + r.NormFloat64()*baseHz*0.01
	}
	return STS{PeakFreqs: freqs, Energy: 1000 + r.Float64()*100, Region: region, TimeSec: timeSec}
}

// synthRun builds one run: 60 windows of region 0 (base f0), then 60 of
// region 1 (base f1), separated by 4 transition windows.
func synthRun(r *rand.Rand, m *cfg.Machine, f0, f1 float64) []STS {
	var run []STS
	tick := 0.0
	add := func(s STS) {
		s.TimeSec = tick
		tick += 0.001
		run = append(run, s)
	}
	for i := 0; i < 60; i++ {
		add(synthSTS(r, m.LoopRegionOf(0), f0, 5, 0))
	}
	if tr, ok := m.TransRegionOf(0, 1); ok {
		for i := 0; i < 4; i++ {
			add(synthSTS(r, tr, (f0+f1)/2, 2, 0))
		}
	}
	for i := 0; i < 60; i++ {
		add(synthSTS(r, m.LoopRegionOf(1), f1, 5, 0))
	}
	return run
}

func synthTrainingRuns(m *cfg.Machine, n int, f0, f1 float64) [][]STS {
	runs := make([][]STS, n)
	for i := range runs {
		r := rand.New(rand.NewSource(int64(i + 1)))
		runs[i] = synthRun(r, m, f0, f1)
	}
	return runs
}

func TestTrainBuildsRegionModels(t *testing.T) {
	m := testMachine(t)
	runs := synthTrainingRuns(m, 8, 100e3, 250e3)
	model, err := Train("synthetic", m, runs, DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	for nest := 0; nest < 2; nest++ {
		rm := model.Regions[m.LoopRegionOf(nest)]
		if rm == nil {
			t.Fatalf("loop region %d not modeled", nest)
		}
		if rm.NumPeaks != 5 {
			t.Errorf("region %d: NumPeaks=%d, want 5", nest, rm.NumPeaks)
		}
		if rm.GroupSize < 2 {
			t.Errorf("region %d: group size %d", nest, rm.GroupSize)
		}
		if len(rm.Modes) != 8 {
			t.Errorf("region %d: %d modes, want 8 (one per run)", nest, len(rm.Modes))
		}
		if rm.TrainWindows != 8*60 {
			t.Errorf("region %d: %d training windows, want 480", nest, rm.TrainWindows)
		}
		// References sorted ascending.
		for j, mode := range rm.Modes {
			for k, ref := range mode.Ref {
				for i := 1; i < len(ref); i++ {
					if ref[i] < ref[i-1] {
						t.Fatalf("region %d mode %d rank %d reference not sorted", nest, j, k)
					}
				}
			}
		}
		// The side summaries cover every training window, in order.
		for _, s := range []stats.Summary{rm.Counts, rm.Energies} {
			if s.N != rm.TrainWindows || !(s.Min <= s.Median && s.Median <= s.Max) {
				t.Errorf("region %d: summary %+v for %d windows", nest, s, rm.TrainWindows)
			}
		}
	}
}

func TestTrainValidation(t *testing.T) {
	m := testMachine(t)
	if _, err := Train("x", nil, nil, DefaultTrainConfig()); err == nil {
		t.Error("nil machine accepted")
	}
	tc := DefaultTrainConfig()
	tc.Alpha = 0
	if _, err := Train("x", m, synthTrainingRuns(m, 2, 1e5, 2e5), tc); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := Train("x", m, nil, DefaultTrainConfig()); err == nil {
		t.Error("no training data accepted")
	}
}

func TestMonitorAcceptsMatchingStream(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(99))
	run := synthRun(r, m, 100e3, 250e3)
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range run {
		mon.Observe(&run[i])
	}
	if len(mon.Reports) != 0 {
		t.Errorf("clean matching stream produced %d reports", len(mon.Reports))
	}
	// The monitor should have followed the region sequence.
	covered := 0
	for i, o := range mon.Outcomes {
		if o.Region == run[i].Region {
			covered++
		}
	}
	if float64(covered) < 0.7*float64(len(run)) {
		t.Errorf("coverage %d/%d too low", covered, len(run))
	}
}

func TestMonitorDetectsShiftedSpectrum(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Region 1 runs 12% slow — the signature of injected per-iteration work.
	r := rand.New(rand.NewSource(100))
	run := synthRun(r, m, 100e3, 250e3*0.88)
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range run {
		mon.Observe(&run[i])
	}
	if len(mon.Reports) == 0 {
		t.Error("12% period shift in region 1 not reported")
	}
}

func TestMonitorDetectsExtraPeaks(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Injected code adds its own periodicity: 5 extra peaks per window in
	// region 0.
	r := rand.New(rand.NewSource(101))
	run := synthRun(r, m, 100e3, 250e3)
	for i := range run {
		if run[i].Region == m.LoopRegionOf(0) {
			extra := synthSTS(r, run[i].Region, 37e3, 5, run[i].TimeSec)
			run[i].PeakFreqs = append(run[i].PeakFreqs, extra.PeakFreqs...)
		}
	}
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range run {
		mon.Observe(&run[i])
	}
	if len(mon.Reports) == 0 {
		t.Error("doubled peak count in region 0 not reported")
	}
}

func TestMonitorDetectsEnergyCollapse(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A flat-power burst: same peaks but 100x less AC energy.
	r := rand.New(rand.NewSource(102))
	run := synthRun(r, m, 100e3, 250e3)
	for i := 70; i < 100 && i < len(run); i++ {
		run[i].Energy /= 100
	}
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range run {
		mon.Observe(&run[i])
	}
	if len(mon.Reports) == 0 {
		t.Error("energy collapse not reported")
	}
}

func TestSTSPeakAt(t *testing.T) {
	s := STS{PeakFreqs: []float64{10, 20}}
	if s.PeakAt(0) != 10 || s.PeakAt(1) != 20 {
		t.Error("PeakAt wrong")
	}
	if s.PeakAt(2) != 0 || s.PeakAt(-1) != 0 {
		t.Error("missing ranks must read as 0")
	}
}

func TestCountAndEnergyBounds(t *testing.T) {
	rm := &RegionModel{
		Counts:   stats.Summarize([]float64{5, 6, 7, 8}),
		Energies: stats.Summarize([]float64{100, 200, 400}),
	}
	lo, hi := rm.CountBounds()
	if lo != 2 || hi != 11 {
		t.Errorf("count bounds [%g,%g], want [2,11]", lo, hi)
	}
	elo, ehi := rm.EnergyBounds()
	if elo != 25 || ehi != 1600 {
		t.Errorf("energy bounds [%g,%g], want [25,1600]", elo, ehi)
	}
	empty := &RegionModel{}
	if l, h := empty.CountBounds(); l != 0 || h != 0 {
		t.Error("empty count bounds")
	}
}

func TestMetricsMath(t *testing.T) {
	m := &Metrics{
		Windows:        100,
		FalsePositives: 2,
		CleanGroups:    80,
		TruePositives:  15,
		InjectedGroups: 20,
		CoveredWindows: 90,
		Episodes:       2,
		Detections:     1,
		LatencySumSec:  0.004,
	}
	if got := m.FalsePositivePct(); got != 2 {
		t.Errorf("FP%% = %g", got)
	}
	if got := m.FalseNegativePct(); got != 25 {
		t.Errorf("FN%% = %g", got)
	}
	if got := m.TruePositivePct(); got != 75 {
		t.Errorf("TPR%% = %g", got)
	}
	if got := m.CoveragePct(); got != 90 {
		t.Errorf("coverage%% = %g", got)
	}
	if got := m.DetectionLatencySec(); got != 0.004 {
		t.Errorf("latency = %g", got)
	}
	if got := m.DetectionRatePct(); got != 50 {
		t.Errorf("detection rate = %g", got)
	}
	var other Metrics
	other.Merge(m)
	other.Merge(m)
	if other.Windows != 200 || other.TruePositives != 30 {
		t.Error("Merge arithmetic wrong")
	}
}

func TestEvaluateEndToEnd(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 8, 100e3, 250e3), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(103))
	run := synthRun(r, m, 100e3, 250e3*0.85)
	// Mark region-1 windows as injected ground truth.
	for i := range run {
		if run[i].Region == m.LoopRegionOf(1) {
			run[i].Injected = true
		}
	}
	mon, err := NewMonitor(model, DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range run {
		mon.Observe(&run[i])
	}
	metrics, err := Evaluate(model, run, mon.Outcomes, mon.Reports, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Episodes != 1 {
		t.Errorf("episodes = %d, want 1", metrics.Episodes)
	}
	if metrics.Detections != 1 {
		t.Errorf("detections = %d, want 1", metrics.Detections)
	}
	if metrics.TruePositivePct() < 30 {
		t.Errorf("TPR %.1f%% too low for a 15%% shift", metrics.TruePositivePct())
	}
	// Mismatched lengths rejected.
	if _, err := Evaluate(model, run[:10], mon.Outcomes, mon.Reports, 0.001); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestMonitorValidation(t *testing.T) {
	m := testMachine(t)
	model, err := Train("synthetic", m, synthTrainingRuns(m, 4, 1e5, 2e5), DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultMonitorConfig()
	bad.GroupSizeScale = -1
	if _, err := NewMonitor(model, bad); err == nil {
		t.Error("negative scale accepted")
	}
}

// Aliases used by persist_test.go to build a second machine without
// importing isa/cfg under clashing names.
type cfgMachine = cfg.Machine

var (
	builderNew   = isa.NewBuilder
	machineBuild = cfg.BuildMachine
	condGT       = isa.GT
)

type programT = isa.Program
