package experiments

import (
	"fmt"
	"io"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/impair"
	"eddie/internal/inject"
	"eddie/internal/metrics"
	"eddie/internal/par"
	"eddie/internal/pipeline"
	"eddie/internal/stream"
)

// RobustnessPoint is one impairment-severity measurement, aggregated over
// the clean and injected monitoring runs.
type RobustnessPoint struct {
	// Impairment names the transform and severity ("awgn(10dB)", …).
	Impairment string `json:"impairment"`
	// SNRdB is set on the AWGN sweep points (the x axis of the
	// accuracy-vs-SNR curve); 0 otherwise.
	SNRdB float64 `json:"snr_db,omitempty"`

	AccuracyPct  float64 `json:"accuracy_pct"`
	FalsePosPct  float64 `json:"false_pos_pct"`
	FalseNegPct  float64 `json:"false_neg_pct"`
	DetectionPct float64 `json:"detection_pct"`
	LatencyMs    float64 `json:"latency_ms"`
}

// StreamRobustness is the online-detector leg: an impaired injected run
// fed sample by sample through stream.Detector with the metrics layer
// attached.
type StreamRobustness struct {
	Impairment     string         `json:"impairment"`
	Windows        int            `json:"windows"`
	Reports        int            `json:"reports"`
	TruePositives  int64          `json:"true_positives"`
	FalsePositives int64          `json:"false_positives"`
	FalseNegatives int64          `json:"false_negatives"`
	TrueNegatives  int64          `json:"true_negatives"`
	Metrics        map[string]any `json:"metrics"`
}

// DriftPoint is one severity rung of the slow-drift leg: both detectors
// saw the same impaired samples, so the flagged counts compare directly.
type DriftPoint struct {
	// Impairment names the rung ("skew(1500ppm)+gaindrift").
	Impairment string `json:"impairment"`
	// PPM is the clock-skew severity of this rung.
	PPM float64 `json:"ppm"`
	// Windows is how many STFT windows each detector judged on this rung.
	Windows int `json:"windows"`
	// StaticFlagged / AdaptiveFlagged count flagged (false-positive)
	// windows on this clean stream.
	StaticFlagged   int `json:"static_flagged"`
	AdaptiveFlagged int `json:"adaptive_flagged"`
	// StaticCleanPct / AdaptiveCleanPct are the corresponding clean-window
	// percentages (100 = no false positives).
	StaticCleanPct   float64 `json:"static_clean_pct"`
	AdaptiveCleanPct float64 `json:"adaptive_clean_pct"`
}

// DriftLeg is the long-lived-session leg: one clean capture replayed
// through a stateful channel-drift chain whose severity ramps between
// rungs, fed chunk-for-chunk to a static and an adaptive detector.
type DriftLeg struct {
	Segments []DriftPoint `json:"segments"`
	// AdaptUpdates / AdaptDrift are the adaptive detector's accounting at
	// the end of the session: admitted reference updates and cumulative
	// normalized reference movement.
	AdaptUpdates int64   `json:"adapt_updates"`
	AdaptDrift   float64 `json:"adapt_drift"`
}

// DenoiseInfo records the subspace-denoising configuration of the
// denoised SNR sweep together with its measured cost and subspace
// quality on this workload.
type DenoiseInfo struct {
	Rank   int `json:"rank"`
	Block  int `json:"block"`
	Stride int `json:"stride"`
	// PerWindowNs is the measured steady-state cost of the stage per
	// spectrum (projection plus amortized refactorization).
	PerWindowNs float64 `json:"per_window_ns"`
	// EnergyRatio is the fraction of block spectral energy the final
	// subspace captured on a clean capture; Refactors how many
	// factorizations that capture triggered.
	EnergyRatio float64 `json:"energy_ratio"`
	Refactors   int64   `json:"refactors"`
}

// RobustnessResult is the full robustness experiment output
// (BENCH_robustness.json).
type RobustnessResult struct {
	Benchmark string `json:"benchmark"`
	TrainRuns int    `json:"train_runs"`
	MonRuns   int    `json:"mon_runs"`
	// Baseline is the unimpaired reference point.
	Baseline RobustnessPoint `json:"baseline"`
	// SNR is the accuracy-vs-SNR sweep (descending SNR), the simulator
	// analogue of the paper's Fig 9 accuracy-vs-distance curve: distance
	// degrades SNR, so accuracy should fall off the same way as severity
	// rises.
	SNR []RobustnessPoint `json:"snr"`
	// SNRDenoised repeats the AWGN sweep with the SVD subspace denoising
	// stage enabled (and a model trained under it): the low-SNR points
	// should recover accuracy relative to SNR.
	SNRDenoised []RobustnessPoint `json:"snr_denoised"`
	// Denoise describes the stage the denoised sweep ran with.
	Denoise *DenoiseInfo `json:"denoise,omitempty"`
	// Impairments sweeps the non-noise faults (dropouts, clock skew, gain
	// drift, DC wander, interferer tones) at increasing severity.
	Impairments []RobustnessPoint `json:"impairments"`
	// Stream is the online-detector leg.
	Stream StreamRobustness `json:"stream"`
	// Drift is the slow-drift leg: static vs adaptive detection across a
	// ramping clock-skew session (the tentpole's acceptance measurement).
	Drift DriftLeg `json:"drift"`
}

// robustnessSNRGrid is the AWGN sweep, in dB, descending. 120 dB is
// effectively clean; 0 dB means noise as strong as the signal.
var robustnessSNRGrid = []float64{120, 30, 20, 15, 10, 5, 0}

// robustnessDenoise is the subspace-denoising configuration of the
// denoised sweep: rank 3 keeps just the dominant loop-activity
// directions (higher ranks readmit noise and cost accuracy at low SNR),
// over a 32-window block, refactoring every 8 windows.
var robustnessDenoise = dsp.DenoiseConfig{Rank: 3, Block: 32, Stride: 8}

// robustnessAttack is the injected fault every monitored run carries:
// the Fig 5 style in-loop injection at 50% contamination.
func robustnessAttack(t *trained) inject.Injector {
	return &inject.InLoop{
		Header: t.nestHeader(0), Instrs: 16, MemOps: 8,
		Contamination: 0.5, Seed: 42,
	}
}

// Robustness sweeps signal impairments over one benchmark's monitored
// runs and measures how detection degrades. Runs are simulated once;
// each severity point re-impairs and re-reduces the captured signals
// (impair.Apply + pipeline.Reduce), so the sweep isolates the channel
// effect from run-to-run workload variation.
func Robustness(e *Env, w io.Writer) (*RobustnessResult, error) {
	const benchmark = "bitcount"
	t, err := e.train(benchmark, e.Sim, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	nRuns := e.MonRunsSim

	// Collect the monitored runs once, keeping signals for re-reduction:
	// nRuns clean and nRuns injected.
	runs := make([]*pipeline.Run, 2*nRuns)
	err = par.Do(2*nRuns, 0, func(i int) error {
		var inj inject.Injector
		runIdx := monitorRunBase + i
		if i >= nRuns {
			inj = robustnessAttack(t)
			runIdx = injectionRunBase + (i - nRuns)
		}
		r, err := pipeline.CollectRun(t.w, t.machine, e.Sim, runIdx, inj)
		if err != nil {
			return err
		}
		runs[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &RobustnessResult{
		Benchmark: benchmark,
		TrainRuns: e.TrainRunsSim,
		MonRuns:   nRuns,
	}

	// Baseline: no impairment.
	base, err := robustnessPoint(e, t, e.Sim, runs, "clean", func(runIdx int) impair.Transform { return nil })
	if err != nil {
		return nil, err
	}
	res.Baseline = *base

	// AWGN sweep. Each run gets its own noise realization, seeded by the
	// run index so the whole sweep is reproducible.
	res.SNR = make([]RobustnessPoint, len(robustnessSNRGrid))
	err = par.Do(len(robustnessSNRGrid), 0, func(si int) error {
		snr := robustnessSNRGrid[si]
		p, err := robustnessPoint(e, t, e.Sim, runs, fmt.Sprintf("awgn(%gdB)", snr), func(runIdx int) impair.Transform {
			return &impair.AWGN{SNRdB: snr, Seed: 7000 + int64(runIdx)}
		})
		if err != nil {
			return err
		}
		p.SNRdB = snr
		res.SNR[si] = *p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Denoised AWGN sweep: the same grid and noise realizations with the
	// SVD subspace stage in the pipeline and a model trained under it
	// (training and monitoring must see the same spectra). The collected
	// signals are reused — denoising acts on the reduction, not the run.
	simD := e.Sim
	simD.Denoise = robustnessDenoise
	tD, err := e.train(benchmark, simD, e.TrainRunsSim)
	if err != nil {
		return nil, err
	}
	res.SNRDenoised = make([]RobustnessPoint, len(robustnessSNRGrid))
	err = par.Do(len(robustnessSNRGrid), 0, func(si int) error {
		snr := robustnessSNRGrid[si]
		p, err := robustnessPoint(e, tD, simD, runs, fmt.Sprintf("awgn(%gdB)+denoise", snr), func(runIdx int) impair.Transform {
			return &impair.AWGN{SNRdB: snr, Seed: 7000 + int64(runIdx)}
		})
		if err != nil {
			return err
		}
		p.SNRdB = snr
		res.SNRDenoised[si] = *p
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Denoise, err = measureDenoise(simD, runs[0])
	if err != nil {
		return nil, err
	}

	// Non-noise impairments at increasing severity.
	sampleRate := e.Sim.STFT.SampleRate
	impairments := []struct {
		label string
		mk    func(runIdx int) impair.Transform
	}{
		{"dropout(1e-4)", func(i int) impair.Transform { return &impair.Dropout{Rate: 1e-4, MeanLen: 64, Seed: 7100 + int64(i)} }},
		{"dropout(1e-3)", func(i int) impair.Transform { return &impair.Dropout{Rate: 1e-3, MeanLen: 64, Seed: 7200 + int64(i)} }},
		{"skew(200ppm)", func(i int) impair.Transform { return &impair.ClockSkew{PPM: 200} }},
		{"skew(5000ppm)", func(i int) impair.Transform { return &impair.ClockSkew{PPM: 5000} }},
		{"gaindrift(1e-5)", func(i int) impair.Transform { return &impair.GainDrift{Std: 1e-5, Seed: 7300 + int64(i)} }},
		{"gaindrift(1e-3)", func(i int) impair.Transform { return &impair.GainDrift{Std: 1e-3, Seed: 7400 + int64(i)} }},
		{"dcwander(0.1)", func(i int) impair.Transform { return &impair.DCWander{Std: 0.1, Max: 50, Seed: 7500 + int64(i)} }},
		{"tone(1MHz)", func(i int) impair.Transform {
			return &impair.Tone{FreqHz: 1e6, SampleRate: sampleRate, Amp: 10}
		}},
		{"awgn+dropout+tone", func(i int) impair.Transform {
			return impair.NewChain(
				&impair.AWGN{SNRdB: 20, Seed: 7600 + int64(i)},
				&impair.Dropout{Rate: 1e-4, MeanLen: 64, Seed: 7700 + int64(i)},
				&impair.Tone{FreqHz: 2e6, SampleRate: sampleRate, Amp: 5},
			)
		}},
	}
	res.Impairments = make([]RobustnessPoint, len(impairments))
	err = par.Do(len(impairments), 0, func(ii int) error {
		p, err := robustnessPoint(e, t, e.Sim, runs, impairments[ii].label, impairments[ii].mk)
		if err != nil {
			return err
		}
		res.Impairments[ii] = *p
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Online leg: one injected run through stream.Detector with a 20 dB
	// AWGN impairment and the metrics layer attached.
	str, err := robustnessStream(e, t, runs[nRuns])
	if err != nil {
		return nil, err
	}
	res.Stream = *str

	// Slow-drift leg: clean capture, ramping skew, static vs adaptive.
	drift, err := robustnessDrift(e, t, runs[0])
	if err != nil {
		return nil, err
	}
	res.Drift = *drift

	printRobustness(w, res)
	return res, nil
}

// robustnessDriftPPM is the clock-skew ramp of the drift leg, in ppm.
// Each rung replays the clean capture twice through the same stateful
// impairment chain, so the skew accumulates phase continuously and the
// step between rungs stays far below the adaptive pursuit range.
var robustnessDriftPPM = []float64{0, 500, 1500, 4000}

// robustnessDrift replays one clean capture through a ramping
// channel-drift chain (clock skew plus a mild gain walk) and feeds the
// impaired chunks to a static and an adaptive detector in lockstep. On a
// clean stream every flagged window is a false positive, so the two
// flagged counts measure how much detection budget each detector loses
// to drift at every severity rung.
func robustnessDrift(e *Env, t *trained, run *pipeline.Run) (*DriftLeg, error) {
	mkDet := func(adapt core.AdaptConfig) (*stream.Detector, error) {
		mc := e.MonitorCfg
		mc.Adapt = adapt
		return stream.NewDetector(t.model, stream.Config{
			STFT:    e.Sim.STFT,
			Peaks:   e.Sim.Peaks,
			Monitor: mc,
		})
	}
	static, err := mkDet(core.AdaptConfig{})
	if err != nil {
		return nil, err
	}
	adaptive, err := mkDet(core.AdaptConfig{Enabled: true, Rate: 0.1, MinCleanStreak: 8})
	if err != nil {
		return nil, err
	}

	// One stateful chain for the whole session: mutating the skew's PPM
	// between chunks ramps severity without discontinuity (the resampler
	// keeps its phase), and the gain walk continues across rungs.
	skew := &impair.ClockSkew{}
	gain := &impair.GainDrift{Std: 1e-6, Seed: 7900}
	flaggedSince := func(d *stream.Detector, from int) (int, int) {
		out := d.Monitor().Outcomes
		n := 0
		for _, o := range out[from:] {
			if o.Flagged {
				n++
			}
		}
		return n, len(out)
	}

	leg := &DriftLeg{Segments: make([]DriftPoint, 0, len(robustnessDriftPPM))}
	buf := make([]float64, 0, 4096)
	for _, ppm := range robustnessDriftPPM {
		skew.PPM = ppm
		sMark := len(static.Monitor().Outcomes)
		aMark := len(adaptive.Monitor().Outcomes)
		for rep := 0; rep < 2; rep++ {
			sig := run.Signal
			for len(sig) > 0 {
				n := min(4096, len(sig))
				// The chain mutates its input and returns internal buffers,
				// so impair a copy and feed both detectors the same output
				// before the next Process call invalidates it.
				buf = append(buf[:0], sig[:n]...)
				out := gain.Process(skew.Process(buf))
				static.Feed(out)
				adaptive.Feed(out)
				sig = sig[n:]
			}
		}
		sf, sEnd := flaggedSince(static, sMark)
		af, aEnd := flaggedSince(adaptive, aMark)
		windows := sEnd - sMark
		if aw := aEnd - aMark; aw != windows {
			return nil, fmt.Errorf("drift leg: detectors diverged on window count (%d vs %d)", windows, aw)
		}
		p := DriftPoint{
			Impairment:      fmt.Sprintf("skew(%gppm)+gaindrift", ppm),
			PPM:             ppm,
			Windows:         windows,
			StaticFlagged:   sf,
			AdaptiveFlagged: af,
		}
		if windows > 0 {
			p.StaticCleanPct = 100 * float64(windows-sf) / float64(windows)
			p.AdaptiveCleanPct = 100 * float64(windows-af) / float64(windows)
		}
		leg.Segments = append(leg.Segments, p)
	}
	leg.AdaptUpdates = adaptive.Monitor().AdaptUpdates()
	leg.AdaptDrift = adaptive.Monitor().AdaptDrift()
	return leg, nil
}

// robustnessPoint impairs every collected run with mk(runIdx), re-reduces
// it under c (which may differ from the collection config by its Denoise
// stage), re-monitors against t's model and aggregates the evaluation
// metrics.
func robustnessPoint(e *Env, t *trained, c pipeline.Config, runs []*pipeline.Run, label string, mk func(runIdx int) impair.Transform) (*RobustnessPoint, error) {
	agg := &core.Metrics{}
	for i, run := range runs {
		signal := impair.Apply(mk(i), run.Signal)
		sts, err := pipeline.Reduce(signal, run.Sim, c)
		if err != nil {
			return nil, fmt.Errorf("robustness %s: %w", label, err)
		}
		mon, err := pipeline.Monitor(t.model, sts, e.MonitorCfg)
		if err != nil {
			return nil, err
		}
		m, err := core.Evaluate(t.model, sts, mon.Outcomes, mon.Reports, c.HopSeconds())
		if err != nil {
			return nil, err
		}
		agg.Merge(m)
	}
	return &RobustnessPoint{
		Impairment:   label,
		AccuracyPct:  agg.AccuracyPct(),
		FalsePosPct:  agg.FalsePositivePct(),
		FalseNegPct:  agg.FalseNegativePct(),
		DetectionPct: agg.DetectionRatePct(),
		LatencyMs:    agg.DetectionLatencySec() * 1e3,
	}, nil
}

// measureDenoise times the subspace stage on one clean capture's
// spectrogram and reports the per-window cost together with the final
// subspace quality.
func measureDenoise(c pipeline.Config, run *pipeline.Run) (*DenoiseInfo, error) {
	frames, err := dsp.STFT(dsp.Detrend(run.Signal), c.STFT)
	if err != nil {
		return nil, err
	}
	dn, err := dsp.NewDenoiser(c.Denoise, c.STFT.WindowSize/2+1)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := range frames {
		dn.Push(frames[i].Power)
	}
	elapsed := time.Since(start)
	info := &DenoiseInfo{
		Rank:        c.Denoise.Rank,
		Block:       c.Denoise.Block,
		Stride:      c.Denoise.Stride,
		EnergyRatio: dn.EnergyRatio(),
		Refactors:   dn.Refactors(),
	}
	if len(frames) > 0 {
		info.PerWindowNs = float64(elapsed.Nanoseconds()) / float64(len(frames))
	}
	return info, nil
}

// robustnessStream runs the online detector over one injected capture
// with a mild AWGN impairment and the metrics layer wired in.
func robustnessStream(e *Env, t *trained, run *pipeline.Run) (*StreamRobustness, error) {
	m := metrics.NewDetector()
	cfg := stream.Config{
		STFT:    e.Sim.STFT,
		Peaks:   e.Sim.Peaks,
		Monitor: e.MonitorCfg,
		Impair:  &impair.AWGN{SNRdB: 20, Seed: 99},
		Metrics: m,
		GroundTruth: func(w int) bool {
			return w < len(run.STS) && run.STS[w].Injected
		},
	}
	// The leg reports its own bundle, monitor counters included: a Stats
	// hook inherited from the environment (eddie -metrics sets one) would
	// keep the detector from forwarding m to the monitor.
	cfg.Monitor.Stats = nil
	d, err := stream.NewDetector(t.model, cfg)
	if err != nil {
		return nil, err
	}
	// Feed in receiver-buffer sized chunks, as a deployment would.
	sig := run.Signal
	for len(sig) > 0 {
		n := 4096
		if n > len(sig) {
			n = len(sig)
		}
		d.Feed(sig[:n])
		sig = sig[n:]
	}
	return &StreamRobustness{
		Impairment:     cfg.Impair.Name(),
		Windows:        d.Windows(),
		Reports:        len(d.Monitor().Reports),
		TruePositives:  m.TruePos.Value(),
		FalsePositives: m.FalsePos.Value(),
		FalseNegatives: m.FalseNeg.Value(),
		TrueNegatives:  m.TrueNeg.Value(),
		Metrics:        m.Reg.Snapshot(),
	}, nil
}

func printRobustness(w io.Writer, res *RobustnessResult) {
	fprintf(w, "Robustness: %s, %d clean + %d injected monitored runs\n",
		res.Benchmark, res.MonRuns, res.MonRuns)
	row := func(p *RobustnessPoint) {
		fprintf(w, "  %-20s acc %5.1f%%  fp %5.2f%%  fn %5.1f%%  det %3.0f%%  lat %6.2fms\n",
			p.Impairment, p.AccuracyPct, p.FalsePosPct, p.FalseNegPct, p.DetectionPct, p.LatencyMs)
	}
	row(&res.Baseline)
	fprintf(w, "accuracy vs SNR (cf. Fig 9's accuracy-vs-distance):\n")
	for i := range res.SNR {
		row(&res.SNR[i])
	}
	if res.Denoise != nil {
		fprintf(w, "accuracy vs SNR with subspace denoising (rank %d, block %d, stride %d; %.0f ns/window, energy %.2f):\n",
			res.Denoise.Rank, res.Denoise.Block, res.Denoise.Stride, res.Denoise.PerWindowNs, res.Denoise.EnergyRatio)
		for i := range res.SNRDenoised {
			row(&res.SNRDenoised[i])
		}
	}
	fprintf(w, "impairment severities:\n")
	for i := range res.Impairments {
		row(&res.Impairments[i])
	}
	s := &res.Stream
	fprintf(w, "online detector (%s): %d windows, %d reports, TP %d FP %d FN %d TN %d\n",
		s.Impairment, s.Windows, s.Reports, s.TruePositives, s.FalsePositives, s.FalseNegatives, s.TrueNegatives)
	fprintf(w, "slow-drift leg, static vs adaptive (updates %d, drift %.3f):\n",
		res.Drift.AdaptUpdates, res.Drift.AdaptDrift)
	for i := range res.Drift.Segments {
		p := &res.Drift.Segments[i]
		fprintf(w, "  %-24s %4d windows  static %3d flagged (%5.1f%% clean)  adaptive %3d flagged (%5.1f%% clean)\n",
			p.Impairment, p.Windows, p.StaticFlagged, p.StaticCleanPct, p.AdaptiveFlagged, p.AdaptiveCleanPct)
	}
}
