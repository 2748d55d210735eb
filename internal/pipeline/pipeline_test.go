package pipeline

import (
	"reflect"
	"testing"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/inject"
	"eddie/internal/mibench"
	"eddie/internal/obs"
)

// TestSpectraCarryRegionStructure is the load-bearing integration check:
// loop regions must yield STFT windows with spectral peaks, and different
// regions must be spectrally distinguishable — the physical premise EDDIE
// rests on. The run is traced: its track must carry one span per
// pipeline stage and no per-window spans.
func TestSpectraCarryRegionStructure(t *testing.T) {
	w := mibench.Bitcount()
	machine, err := cfg.BuildMachine(w.Program)
	if err != nil {
		t.Fatal(err)
	}
	c := SimulatorConfig()
	c.Trace = obs.NewRecorder()
	run, err := CollectRun(w, machine, c, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runTrackSpans(t, c.Trace), []string{"simulate", "detrend", "reduce"}; !reflect.DeepEqual(got, want) {
		t.Errorf("run track spans %q, want %q", got, want)
	}
	if len(run.STS) < 50 {
		t.Fatalf("only %d windows; run too short", len(run.STS))
	}

	// Per-region statistics.
	type rstat struct {
		windows  int
		peaks    int
		topFreqs []float64
	}
	stats := map[cfg.RegionID]*rstat{}
	for i := range run.STS {
		s := &run.STS[i]
		rs := stats[s.Region]
		if rs == nil {
			rs = &rstat{}
			stats[s.Region] = rs
		}
		rs.windows++
		rs.peaks += len(s.PeakFreqs)
		if len(s.PeakFreqs) > 0 {
			rs.topFreqs = append(rs.topFreqs, s.PeakFreqs[0])
		}
	}
	loopRegionsWithPeaks := 0
	for id, rs := range stats {
		r := machine.Region(id)
		if r == nil {
			continue
		}
		t.Logf("region %v (%s): %d windows, %.1f peaks/window", id, r.Label, rs.windows, float64(rs.peaks)/float64(rs.windows))
		if r.Kind == cfg.LoopRegion && rs.windows >= 10 && rs.peaks > rs.windows {
			loopRegionsWithPeaks++
		}
	}
	if loopRegionsWithPeaks < 3 {
		t.Errorf("only %d loop regions produced peaky spectra; EDDIE needs loop peaks", loopRegionsWithPeaks)
	}
}

// TestTrainMonitorCleanRunIsQuiet trains on a few runs and verifies a held
// out clean run produces few false alarms and decent coverage.
func TestTrainMonitorCleanRunIsQuiet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	w := mibench.Bitcount()
	c := SimulatorConfig()
	tc := core.DefaultTrainConfig()
	model, machine, err := Train(w, c, 12, tc)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model:\n%s", model)

	run, err := CollectRun(w, machine, c, 100, nil) // unseen input
	if err != nil {
		t.Fatal(err)
	}
	m, err := MonitorAndScore(model, c, run.STS, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean run: %s", m)
	if fp := m.FalsePositivePct(); fp > 10 {
		t.Errorf("false positive rate %.2f%% on a clean run; want < 10%%", fp)
	}
	if cov := m.CoveragePct(); cov < 50 {
		t.Errorf("coverage %.1f%%; want > 50%%", cov)
	}
}

// TestTrainMonitorDetectsBurstInjection verifies the headline behaviour: a
// shellcode-sized burst injected between two loops is reported.
func TestTrainMonitorDetectsBurstInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	w := mibench.Bitcount()
	c := SimulatorConfig()
	model, machine, err := Train(w, c, 12, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	injector := &inject.Burst{
		BlockNest: machine.BlockNest,
		FromNest:  1,
		Count:     476_000,
	}
	run, err := CollectRun(w, machine, c, 200, injector)
	if err != nil {
		t.Fatal(err)
	}
	injected := 0
	for i := range run.STS {
		if run.STS[i].Injected {
			injected++
		}
	}
	if injected < 5 {
		t.Fatalf("burst produced only %d injected windows", injected)
	}
	m, err := MonitorAndScore(model, c, run.STS, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("burst run: %s (injected windows: %d)", m, injected)
	if m.Detections == 0 {
		t.Error("burst injection was not detected")
	}
	if tpr := m.TruePositivePct(); tpr < 50 {
		t.Errorf("true positive rate %.1f%%; want > 50%%", tpr)
	}
}

// TestTrainMonitorDetectsInLoopInjection verifies that 8 instructions
// injected per loop iteration are detected.
func TestTrainMonitorDetectsInLoopInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	w := mibench.Bitcount()
	c := SimulatorConfig()
	model, machine, err := Train(w, c, 12, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	injector := &inject.InLoop{
		Header:        machine.Nests[0].Header,
		Instrs:        8,
		MemOps:        4,
		Contamination: 1.0,
		Seed:          42,
	}
	run, err := CollectRun(w, machine, c, 300, injector)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MonitorAndScore(model, c, run.STS, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("in-loop run: %s", m)
	if m.Detections == 0 {
		t.Error("in-loop injection was not detected")
	}
}

// TestEMChannelPipeline verifies the Table 1 mode: IoT core, EM channel
// with noise and interference, envelope receiver. The model must still
// train and a clean run must stay quiet.
func TestEMChannelPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	w := mibench.Bitcount()
	c := DefaultConfig()
	model, machine, err := Train(w, c, 12, core.DefaultTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("model:\n%s", model)
	run, err := CollectRun(w, machine, c, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MonitorAndScore(model, c, run.STS, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("clean EM run: %s", m)
	if fp := m.FalsePositivePct(); fp > 15 {
		t.Errorf("false positive rate %.2f%% on a clean EM run", fp)
	}
	inj := &inject.Burst{BlockNest: machine.BlockNest, FromNest: 1, Count: 476_000}
	dirty, err := CollectRun(w, machine, c, 200, inj)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := MonitorAndScore(model, c, dirty.STS, core.DefaultMonitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("burst EM run: %s", dm)
	if dm.Detections == 0 {
		t.Error("burst not detected through the EM channel")
	}
}
