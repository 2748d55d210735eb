package stream

import (
	"testing"

	"eddie/internal/allocguard"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/metrics"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// TestDenoiseDisabledNoOverhead pins the disabled path: a detector built
// with the zero Denoise config carries no denoiser, emits verdicts
// bit-identical to one where the field was never considered, and its
// steady-state sample path still performs zero heap allocations.
func TestDenoiseDisabledNoOverhead(t *testing.T) {
	f := pipetest.Fixture(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 810, nil)
	if err != nil {
		t.Fatal(err)
	}
	clean := dsp.Detrend(run.Signal)

	mk := func(c Config) *Detector {
		d, err := NewDetector(f.Model, c)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	base := streamCfg(f.Config)
	base.DisableDCBlock = true
	explicit := base
	explicit.Denoise = dsp.DenoiseConfig{} // spelled out, still disabled
	d1, d2 := mk(base), mk(explicit)
	if d1.Denoiser() != nil || d2.Denoiser() != nil {
		t.Fatal("disabled config built a denoiser")
	}
	d1.Feed(clean)
	d2.Feed(clean)
	m1, m2 := d1.Monitor(), d2.Monitor()
	if len(m1.Outcomes) != len(m2.Outcomes) || len(m1.Reports) != len(m2.Reports) {
		t.Fatalf("disabled-denoise verdict drift: %d/%d outcomes, %d/%d reports",
			len(m1.Outcomes), len(m2.Outcomes), len(m1.Reports), len(m2.Reports))
	}
	for w := range m1.Outcomes {
		a, b := m1.Outcomes[w], m2.Outcomes[w]
		if a.Region != b.Region || a.Rejected != b.Rejected || a.Flagged != b.Flagged {
			t.Fatalf("window %d: outcome %+v vs %+v", w, a, b)
		}
	}

	// Steady-state allocation guard, with the metrics layer attached the
	// way a fleet session runs it.
	d := mk(Config{
		STFT:              f.Config.STFT,
		Peaks:             f.Config.Peaks,
		Monitor:           core.DefaultMonitorConfig(),
		DisableDCBlock:    true,
		MaxHistoryWindows: 256,
		Metrics:           metrics.NewDetector(),
	})
	const chunk = 1024
	chunks := make([][]float64, 0, len(clean)/chunk)
	for i := 0; i+chunk <= len(clean); i += chunk {
		chunks = append(chunks, clean[i:i+chunk])
	}
	if len(chunks) < 40 {
		t.Fatalf("capture too short: %d chunks", len(chunks))
	}
	// Warm up past ring growth and the history-trim onset; align so the
	// capture-cycling splice resolves before the measurement window.
	i := 0
	for ; i < 300 || i%len(chunks) != 6; i++ {
		d.Feed(chunks[i%len(chunks)])
	}
	before := len(d.Monitor().Reports)
	// Four passes of eight chunks: the 32 chunks the stretch before the
	// next splice allows.
	allocguard.Zero(t, "disabled-denoise steady state", 3, 8, func(int) {
		d.Feed(chunks[i%len(chunks)])
		i++
	})
	if n := len(d.Monitor().Reports) - before; n != 0 {
		t.Skipf("measurement window fired %d reports; no report-free stretch", n)
	}
}

// TestDenoiseEnabledDetector exercises the enabled stage end to end on a
// streaming detector: the denoiser is live, refactors on schedule, and
// publishes rank/energy/refactor instruments to the metrics layer.
func TestDenoiseEnabledDetector(t *testing.T) {
	f := pipetest.Fixture(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 820, nil)
	if err != nil {
		t.Fatal(err)
	}
	dm := metrics.NewDetector()
	cfg := streamCfg(f.Config)
	cfg.DisableDCBlock = true
	cfg.Denoise = dsp.DenoiseConfig{Rank: 5, Block: 16, Stride: 4, Seed: 3}
	cfg.Metrics = dm
	d, err := NewDetector(f.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Denoiser() == nil {
		t.Fatal("enabled config did not build a denoiser")
	}
	d.Feed(dsp.Detrend(run.Signal))
	dn := d.Denoiser()
	if dn.Windows() != int64(d.Windows()) {
		t.Fatalf("denoiser saw %d windows, detector %d", dn.Windows(), d.Windows())
	}
	if dn.Refactors() < 2 {
		t.Fatalf("denoiser refactored %d times over %d windows", dn.Refactors(), d.Windows())
	}
	if got := dm.DenoiseRefactors.Value(); got != dn.Refactors() {
		t.Errorf("metrics refactor counter %d, denoiser %d", got, dn.Refactors())
	}
	if r := dm.DenoiseRank.Value(); r < 1 || r > 5 {
		t.Errorf("denoise_rank gauge %d outside [1, 5]", r)
	}
	if p := dm.DenoiseEnergyPct.Value(); p < 1 || p > 100 {
		t.Errorf("denoise_energy_pct gauge %d outside [1, 100]", p)
	}
}
