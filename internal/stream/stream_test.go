package stream

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"eddie/internal/core"
	"eddie/internal/impair"
	"eddie/internal/inject"
	"eddie/internal/metrics"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

func streamCfg(p pipeline.Config) Config {
	return Config{STFT: p.STFT, Peaks: p.Peaks, Denoise: p.Denoise, Monitor: core.DefaultMonitorConfig()}
}

func TestDetectorQuietOnCleanStream(t *testing.T) {
	f := pipetest.Fixture(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(f.Model, streamCfg(f.Config))
	if err != nil {
		t.Fatal(err)
	}
	// Feed in awkward batch sizes to exercise buffering.
	var reports []core.Report
	sig := run.Signal
	for len(sig) > 0 {
		n := 173
		if n > len(sig) {
			n = len(sig)
		}
		reports = append(reports, d.Feed(sig[:n])...)
		sig = sig[n:]
	}
	if len(reports) != 0 {
		t.Errorf("clean stream produced %d reports", len(reports))
	}
	if d.Windows() == 0 {
		t.Fatal("no windows processed")
	}
	// The streaming detector should see the same number of windows as the
	// offline STFT (up to trailing remainder).
	if diff := len(run.STS) - d.Windows(); diff < 0 || diff > 2 {
		t.Errorf("streaming windows %d vs offline %d", d.Windows(), len(run.STS))
	}
}

func TestDetectorReportsInjectedStream(t *testing.T) {
	f := pipetest.Fixture(t)
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 1, Seed: 9,
	}
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 600, injector)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(f.Model, streamCfg(f.Config))
	if err != nil {
		t.Fatal(err)
	}
	reports := d.Feed(run.Signal)
	if len(reports) == 0 {
		t.Fatal("injected stream produced no reports")
	}
	// Report timestamps are within the run duration.
	dur := run.Sim.Duration()
	for _, r := range reports {
		if r.TimeSec < 0 || r.TimeSec > dur {
			t.Errorf("report at %.4f s outside run duration %.4f s", r.TimeSec, dur)
		}
	}
}

// TestDetectorReportsInvariantToDCOffset pins the streaming DC blocker:
// adding a constant offset to the input, from a few times the signal's
// mean up to a thousand times it, must not change a single report on a
// clean or an injected run.
func TestDetectorReportsInvariantToDCOffset(t *testing.T) {
	f := pipetest.Tiny(t)
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 1, Seed: 9,
	}
	for _, tc := range []struct {
		name   string
		runIdx int
		inj    inject.Injector
	}{
		{"clean", 500, nil},
		{"injected", 600, injector},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, tc.runIdx, tc.inj)
			if err != nil {
				t.Fatal(err)
			}
			var mean float64
			for _, v := range run.Signal {
				mean += v
			}
			mean /= float64(len(run.Signal))
			feed := func(offset float64) []core.Report {
				d, err := NewDetector(f.Model, streamCfg(f.Config))
				if err != nil {
					t.Fatal(err)
				}
				sig := make([]float64, len(run.Signal))
				for i, v := range run.Signal {
					sig[i] = v + offset
				}
				return d.Feed(sig)
			}
			want := feed(0)
			if tc.inj != nil && len(want) == 0 {
				t.Fatal("injected stream produced no reports")
			}
			for _, k := range []float64{3, -5, 1000} {
				if got := feed(k * mean); !reflect.DeepEqual(got, want) {
					t.Errorf("offset %g×mean: reports %+v, want %+v", k, got, want)
				}
			}
		})
	}
}

func TestDetectorBatchSizeInvariance(t *testing.T) {
	f := pipetest.Fixture(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 700, nil)
	if err != nil {
		t.Fatal(err)
	}
	countWindows := func(batch int) int {
		d, err := NewDetector(f.Model, streamCfg(f.Config))
		if err != nil {
			t.Fatal(err)
		}
		sig := run.Signal
		for len(sig) > 0 {
			n := batch
			if n > len(sig) {
				n = len(sig)
			}
			d.Feed(sig[:n])
			sig = sig[n:]
		}
		return d.Windows()
	}
	all := countWindows(len(run.Signal))
	one := countWindows(1)
	odd := countWindows(997)
	if all != one || all != odd {
		t.Errorf("window counts differ by batch size: whole=%d single=%d odd=%d", all, one, odd)
	}
}

// TestDetectorFeedChunksMatchesFeed pins the batched entry point the
// fleet's shard processors use: feeding a run as one FeedChunks call
// over many chunks must produce exactly the reports (same windows, same
// timestamps) as sequential Feed calls on a second detector.
func TestDetectorFeedChunksMatchesFeed(t *testing.T) {
	f := pipetest.Fixture(t)
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 0.5, Seed: 11,
	}
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 650, injector)
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([][]float64, 0, len(run.Signal)/769+1)
	for sig := run.Signal; len(sig) > 0; {
		n := 769
		if n > len(sig) {
			n = len(sig)
		}
		chunks = append(chunks, sig[:n])
		sig = sig[n:]
	}

	seq, err := NewDetector(f.Model, streamCfg(f.Config))
	if err != nil {
		t.Fatal(err)
	}
	var want []core.Report
	for _, c := range chunks {
		want = append(want, seq.Feed(c)...)
	}

	bat, err := NewDetector(f.Model, streamCfg(f.Config))
	if err != nil {
		t.Fatal(err)
	}
	got := bat.FeedChunks(chunks)

	if len(want) == 0 {
		t.Fatal("contaminated run produced no reports; equivalence is vacuous")
	}
	if len(got) != len(want) {
		t.Fatalf("FeedChunks reports %d, sequential Feed %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Window != want[i].Window || got[i].TimeSec != want[i].TimeSec ||
			got[i].Region != want[i].Region {
			t.Fatalf("report %d: batched %+v, sequential %+v", i, got[i], want[i])
		}
	}
	if bat.Windows() != seq.Windows() {
		t.Fatalf("windows %d vs %d", bat.Windows(), seq.Windows())
	}
}

// TestDetectorImpairmentChainChunkInvariance extends the chunk-
// invariance guarantee to a stateful impairment chain: ClockSkew carries
// its resampling phase and Dropout its RNG and gap countdown across
// chunk boundaries, so the verdict history must depend only on the
// concatenated sample stream, never on how the caller batched it.
func TestDetectorImpairmentChainChunkInvariance(t *testing.T) {
	f := pipetest.Fixture(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 720, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(batch int) *Detector {
		cfg := streamCfg(f.Config)
		// A fresh chain per detector: the transforms are stateful.
		cfg.Impair = impair.NewChain(
			&impair.ClockSkew{PPM: 300},
			&impair.Dropout{Rate: 2e-5, MeanLen: 32, Seed: 5},
		)
		d, err := NewDetector(f.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for sig := run.Signal; len(sig) > 0; {
			n := batch
			if n > len(sig) {
				n = len(sig)
			}
			d.Feed(sig[:n])
			sig = sig[n:]
		}
		return d
	}
	whole := feed(len(run.Signal))
	odd := feed(911)
	small := feed(173)
	for _, d := range []*Detector{odd, small} {
		if d.Windows() != whole.Windows() {
			t.Fatalf("window counts differ by batch size: %d vs %d", d.Windows(), whole.Windows())
		}
		if !reflect.DeepEqual(d.Monitor().Outcomes, whole.Monitor().Outcomes) {
			t.Fatal("outcome histories differ by batch size under an impairment chain")
		}
		if !reflect.DeepEqual(d.Monitor().Reports, whole.Monitor().Reports) {
			t.Fatal("report lists differ by batch size under an impairment chain")
		}
	}
}

// TestDetectorAdaptMetrics verifies the detector publishes the monitor's
// adaptation telemetry: with the adaptive layer on, a long clean stream
// admits updates, the adapt_updates/adapt_drift instruments track the
// monitor's own accounting, and each region that admitted an update has
// a region_adapt_drift gauge (together they add up to the total). A
// static detector publishes no such gauge.
func TestDetectorAdaptMetrics(t *testing.T) {
	f := pipetest.Tiny(t)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 730, nil)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(adapt core.AdaptConfig) (*Detector, *metrics.Detector) {
		m := metrics.NewDetector()
		cfg := streamCfg(f.Config)
		cfg.Metrics = m
		cfg.Monitor.Adapt = adapt
		d, err := NewDetector(f.Model, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			d.Feed(run.Signal)
		}
		return d, m
	}
	regionDrift := func(m *metrics.Detector) (sum float64, gauges int) {
		for name, v := range m.Reg.Snapshot() {
			if strings.HasPrefix(name, "region_adapt_drift/R") {
				sum += float64(v.(metrics.FloatGaugeValue))
				gauges++
			}
		}
		return sum, gauges
	}

	d, m := feed(core.AdaptConfig{Enabled: true, MinCleanStreak: 4})
	mon := d.Monitor()
	if mon.AdaptUpdates() == 0 {
		t.Fatal("no adaptation updates on a repeated clean stream")
	}
	if got := m.AdaptUpdates.Value(); got != mon.AdaptUpdates() {
		t.Errorf("adapt_updates metric %d, monitor reports %d", got, mon.AdaptUpdates())
	}
	if got := m.AdaptDrift.Value(); got != mon.AdaptDrift() {
		t.Errorf("adapt_drift metric %g, monitor reports %g", got, mon.AdaptDrift())
	}
	sum, gauges := regionDrift(m)
	if gauges == 0 || gauges > len(f.Model.Regions) {
		t.Errorf("%d region_adapt_drift gauges for a %d-region model", gauges, len(f.Model.Regions))
	}
	if total := mon.AdaptDrift(); math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		t.Errorf("region_adapt_drift gauges add up to %g, total drift %g", sum, total)
	}

	if _, m := feed(core.AdaptConfig{}); m.AdaptUpdates.Value() != 0 {
		t.Errorf("static detector counted %d adaptation updates", m.AdaptUpdates.Value())
	} else if _, gauges := regionDrift(m); gauges != 0 {
		t.Errorf("static detector published %d region_adapt_drift gauges", gauges)
	}
}

func TestDetectorSanitizesNonFinite(t *testing.T) {
	f := pipetest.Fixture(t)
	d, err := NewDetector(f.Model, streamCfg(f.Config))
	if err != nil {
		t.Fatal(err)
	}
	chunk := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)}
	d.Feed(chunk)
	if d.Sanitized() != 3 {
		t.Errorf("sanitized %d samples, want 3", d.Sanitized())
	}
	if d.Buffered() != len(chunk) {
		t.Errorf("buffered %d samples, want %d", d.Buffered(), len(chunk))
	}
}

func TestDetectorMetricsAndGroundTruth(t *testing.T) {
	f := pipetest.Fixture(t)
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 1, Seed: 9,
	}
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 600, injector)
	if err != nil {
		t.Fatal(err)
	}
	m := metrics.NewDetector()
	cfg := streamCfg(f.Config)
	cfg.Metrics = m
	cfg.GroundTruth = func(w int) bool {
		return w < len(run.STS) && run.STS[w].Injected
	}
	d, err := NewDetector(f.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Feed(run.Signal)
	if got := m.SamplesIn.Value(); got != int64(len(run.Signal)) {
		t.Errorf("samples_in %d, want %d", got, len(run.Signal))
	}
	if got := m.Windows.Value(); got != int64(d.Windows()) {
		t.Errorf("sts_produced %d, want %d", got, d.Windows())
	}
	if m.KSTests.Value() == 0 {
		t.Error("no K-S tests counted")
	}
	if m.ReportsFired.Value() == 0 {
		t.Error("no reports counted on an injected stream")
	}
	if m.TruePos.Value() == 0 {
		t.Error("no true positives against ground truth")
	}
	if lat := m.LatencySTS.Snapshot(); lat.Count == 0 {
		t.Error("no detection latency observed")
	} else if latS := m.LatencySamples.Snapshot(); latS.Count != lat.Count {
		t.Errorf("latency histograms disagree: %d STS obs vs %d sample obs", lat.Count, latS.Count)
	}
	snap := m.Reg.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	total := m.TruePos.Value() + m.TrueNeg.Value() + m.FalsePos.Value() + m.FalseNeg.Value()
	if total != int64(d.Windows()) {
		t.Errorf("truth-conditioned counts sum to %d, want %d windows", total, d.Windows())
	}
}

func TestDetectorImpairedStreamStillDetects(t *testing.T) {
	f := pipetest.Fixture(t)
	injector := &inject.InLoop{
		Header: f.Machine.Nests[0].Header, Instrs: 8, MemOps: 4,
		Contamination: 1, Seed: 9,
	}
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 600, injector)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamCfg(f.Config)
	cfg.Impair = impair.NewChain(
		&impair.AWGN{SNRdB: 30, Seed: 4},
		&impair.GainDrift{Std: 1e-6, Seed: 5},
	)
	d, err := NewDetector(f.Model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), run.Signal[:8]...)
	reports := d.Feed(run.Signal)
	for i := range before {
		if run.Signal[i] != before[i] {
			t.Fatal("Feed with Impair modified the caller's buffer")
		}
	}
	if len(reports) == 0 {
		t.Error("mildly impaired injected stream produced no reports")
	}
}

func TestDetectorValidation(t *testing.T) {
	model := &core.Model{} // only needed for config validation paths
	p := pipeline.SimulatorConfig()
	bad := streamCfg(p)
	bad.STFT.WindowSize = 0
	if _, err := NewDetector(model, bad); err == nil {
		t.Error("zero window size accepted")
	}
	bad = streamCfg(p)
	bad.STFT.HopSize = bad.STFT.WindowSize * 2
	if _, err := NewDetector(model, bad); err == nil {
		t.Error("hop > window accepted")
	}
}
