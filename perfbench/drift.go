package main

import (
	"fmt"
	"runtime"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/impair"
	"eddie/internal/inject"
	"eddie/internal/metrics"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
	"eddie/internal/stream"
)

// stream_drift is a long-lived monitoring appliance on a noisy,
// drifting channel. The inputs are simulator-pipeline captures of three
// long-running workloads, clean and in-loop injected in turn; each
// workload's captures form one session fed in 4096-sample chunks to a
// stream.Detector through AWGN at 20 dB, 200 ppm clock skew and gain
// drift. The rank-3 denoiser (block 32, stride 8; the models are
// trained with it) and reference adaptation with the robustness drift
// leg's settings are on; ground truth reaches the detector through
// stream.Config.GroundTruth.
//
// Why this workload: it is the only one that runs impair, the RSVD
// refactors in dsp.Denoiser and the adapt layer, where the decision
// path writes reference updates as well as reading them. Its clean
// windows are flagged often under the 200 ppm skew (the sub-bin-skew
// defect the robustness roadmap item targets), so a fix shows up in
// accuracy_pct here. It bypasses sim in the timed phase (captures are
// generated before it), fleet and obs.

// driftWorkloads are the long-running workloads of the appliance.
var driftWorkloads = []string{"icsduty", "gsm", "rijndael"}

// driftChunk is the receiver buffer size fed per Feed call.
const driftChunk = 4096

// driftCaptures is how many captures each session concatenates,
// alternating clean and injected: enough that the per-sample cost and
// the verdict shares barely depend on which captures a seed picks.
const driftCaptures = 6

// driftDenoise is the robustness sweep's denoiser configuration.
var driftDenoise = dsp.DenoiseConfig{Rank: 3, Block: 32, Stride: 8}

// driftAdapt is the robustness drift leg's adaptation setting.
var driftAdapt = core.AdaptConfig{Enabled: true, Rate: 0.1, MinCleanStreak: 8}

// driftSession is one workload's monitored stream.
type driftSession struct {
	model   *core.Model
	signal  []float64
	truth   []bool // per window: does it hold injected samples
	awgn    int64  // impairment seeds
	gain    int64
	samples int64
}

// driftCounts are one pass's exact counts.
type driftCounts struct {
	Windows, Reports, TruePos, FalsePos, TrueNeg, FalseNeg  int64
	KSTests, RegionSwitches, DenoiseRefactors, AdaptUpdates int64
	Episodes, Detections                                    int64
}

func (a *driftCounts) add(b driftCounts) {
	a.Windows += b.Windows
	a.Reports += b.Reports
	a.TruePos += b.TruePos
	a.FalsePos += b.FalsePos
	a.TrueNeg += b.TrueNeg
	a.FalseNeg += b.FalseNeg
	a.KSTests += b.KSTests
	a.RegionSwitches += b.RegionSwitches
	a.DenoiseRefactors += b.DenoiseRefactors
	a.AdaptUpdates += b.AdaptUpdates
	a.Episodes += b.Episodes
	a.Detections += b.Detections
}

func runStreamDrift(rc *runCtx) error {
	// The training set-up follows the host's fast phases less than the
	// calibration slice does.
	rc.calibExp = map[string]float64{"setup_s": 0.7}
	c := pipeline.SimulatorConfig()
	c.Denoise = driftDenoise
	tc := core.DefaultTrainConfig()
	names := driftWorkloads
	captures := driftCaptures
	if rc.small {
		names, captures = names[:1], 2
	}

	trained, setupTr, err := rc.trainSetup(names, c, tc)
	if err != nil {
		return err
	}

	sessions, inputBytes, err := driftInputs(rc.seed, c, trained, captures)
	if err != nil {
		return err
	}
	var samples int64
	for _, s := range sessions {
		samples += s.samples
	}

	// Reference pass: fixes the counts every later pass must repeat; its
	// detectors stay alive for the steady-state heap reading.
	_, ref, dets, err := driftPass(sessions, c, nil, nil, nil)
	rc.attempted += chunksOf(sessions)
	if err != nil {
		return err
	}
	live := heapAfterGC() - inputBytes
	runtime.KeepAlive(dets)
	rc.setCounts(ref)
	rc.e2e["accuracy_pct"] = 100 * float64(ref.TruePos+ref.TrueNeg) / float64(ref.Windows)
	rc.e2e["detect_pct"] = 100 * float64(ref.Detections) / float64(ref.Episodes)
	rc.e2e["live_heap_mb"] = float64(live) / (1 << 20)
	rc.layer["verdict.fp_pct"] = 100 * float64(ref.FalsePos) / float64(ref.Windows)
	rc.layer["core.ks_tests_per_window"] = float64(ref.KSTests) / float64(ref.Windows)
	rc.layer["core.region_switches"] = float64(ref.RegionSwitches)
	rc.layer["core.adapt_updates"] = float64(ref.AdaptUpdates)
	rc.layer["dsp.denoise_refactors"] = float64(ref.DenoiseRefactors)

	var chunkTimes [][]float64
	var plain, traced []float64
	windowNs := metrics.NewRegistry().LogHist("window_process_ns")
	tr := newTracer()
	stages := map[string]time.Duration{}
	passes := 0
	a0 := allocBytes()
	end := rc.deadline()
	for passes < 3 || time.Now().Before(end) {
		times, got, _, err := driftPass(sessions, c, windowNs, nil, &rc.calib)
		rc.attempted += chunksOf(sessions)
		passes++
		if err == nil && got != ref {
			err = fmt.Errorf("counts %+v != reference %+v", got, ref)
		}
		if err != nil {
			rc.fail(chunksOf(sessions), "stream pass %d: %v", passes, err)
			continue
		}
		var passTime float64
		k := 0
		for _, ts := range times {
			for _, d := range ts {
				if k == len(chunkTimes) {
					chunkTimes = append(chunkTimes, nil)
				}
				chunkTimes[k] = append(chunkTimes[k], d)
				k++
			}
			passTime += sum(ts)
		}
		plain = append(plain, passTime)
		if !rc.traced {
			continue
		}
		rec := obs.NewRecorder()
		tr.begin("pass")
		times, got, _, err = driftPass(sessions, c, nil, &driftTrace{tr: tr, rec: rec}, nil)
		tr.end()
		rc.attempted += chunksOf(sessions)
		if err == nil && got != ref {
			err = fmt.Errorf("traced counts %+v != reference %+v", got, ref)
		}
		if err != nil {
			rc.fail(chunksOf(sessions), "traced stream pass %d: %v", passes, err)
			continue
		}
		var tracedTime float64
		for _, ts := range times {
			tracedTime += sum(ts)
		}
		traced = append(traced, tracedTime)
		spans, _, err := recorderSpans(rec)
		if err != nil {
			return err
		}
		for k, d := range spans {
			stages[k] += d
		}
	}
	alloc := allocBytes() - a0

	rc.setSlotTimings(samples, chunkTimes)
	rc.e2e["alloc_b_per_sample"] = float64(alloc) / float64(samples*int64(passes))
	rc.layer["stream.window_us_p50"] = float64(windowNs.Quantile(0.5)) / 1e3
	rc.layer["stream.window_us_p99"] = float64(windowNs.Quantile(0.99)) / 1e3
	rc.counts["timed_passes"] = int64(passes)
	if !rc.traced {
		return nil
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced pass completed")
	}
	windows := float64(ref.Windows) * float64(len(traced))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / windows }
	rc.layer["impair.us_per_window"] = us(stages["stream/impair"])
	rc.layer["dsp.stft_us_per_window"] = us(stages["stream/stft"])
	rc.layer["dsp.denoise_us_per_window"] = us(stages["stream/denoise"])
	rc.layer["dsp.peaks_us_per_window"] = us(stages["stream/peaks"])
	rc.layer["core.observe_us_per_window"] = us(stages["monitor/observe"])
	rc.layer["core.train_s"] = setupTr.total("core.Train").Seconds()
	setupSelf := setupTr.layerTimes()
	rc.layer["sim.ms_per_run"] = float64(setupSelf["sim.Run"].Nanoseconds()) / 1e6 / float64(setupTr.count("sim.Run"))
	// Inside the Feed spans the program's own stage spans cover the
	// layers below the stream layer, whose self time is the remainder;
	// the pass's time outside Feed is the benchmark loop's.
	rc.layer["bench.traced_coverage_pct"] = 100 * float64(tr.total("stream.Feed")) / float64(tr.total("pass"))
	rc.layer["bench.trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	return nil
}

// driftInputs generates each workload's session: driftCaptures
// captures alternating clean and injected (the robustness sweep's
// in-loop attack at 50% contamination into the first nest's hot loop),
// concatenated, with per-window ground truth. Capture run indices and
// impairment seeds derive from the workload seed. Generating captures
// is the generator's job, not set-up. It also returns the bytes the
// inputs occupy, which the live-heap reading excludes.
func driftInputs(seed int64, c pipeline.Config, tws []*trainedWorkload, captures int) ([]*driftSession, uint64, error) {
	var out []*driftSession
	var bytes uint64
	ws, hop := c.STFT.WindowSize, c.STFT.HopSize
	for wi, tw := range tws {
		hot, err := pipeline.HotLoopHeaders(tw.w, tw.machine)
		if err != nil {
			return nil, 0, err
		}
		s := &driftSession{
			model: tw.model,
			awgn:  seedFor(seed, int64(3100+wi)),
			gain:  seedFor(seed, int64(3200+wi)),
		}
		var injected []bool
		for k := 0; k < captures; k++ {
			var inj inject.Injector
			if k%2 == 1 {
				inj = &inject.InLoop{
					Header: hot[0], Instrs: 16, MemOps: 8, Contamination: 0.5,
					Seed: 1 + seedFor(seed, int64(3300+8*wi+k))%1_000_000,
				}
			}
			runIdx := 1000 + int(seedFor(seed, int64(3400+8*wi+k))%100000)
			run, err := pipeline.CollectRun(tw.w, tw.machine, c, runIdx, inj)
			if err != nil {
				return nil, 0, err
			}
			s.signal = append(s.signal, run.Signal...)
			injected = append(injected, run.Sim.InjectedSamples[:len(run.Signal)]...)
		}
		for start := 0; start+ws <= len(s.signal); start += hop {
			hit := false
			for _, b := range injected[start : start+ws] {
				if b {
					hit = true
					break
				}
			}
			s.truth = append(s.truth, hit)
		}
		s.samples = int64(len(s.signal))
		bytes += uint64(8*cap(s.signal) + cap(s.truth))
		out = append(out, s)
	}
	return out, bytes, nil
}

// chunksOf counts the Feed calls of one pass.
func chunksOf(ss []*driftSession) int {
	n := 0
	for _, s := range ss {
		n += (len(s.signal) + driftChunk - 1) / driftChunk
	}
	return n
}

// driftTrace is the traced pass's instrumentation: the benchmark's
// spans around Feed and the program's own stage spans.
type driftTrace struct {
	tr  *tracer
	rec *obs.Recorder
}

// driftGroup is how many chunks make one timed step: tens of
// milliseconds, with a calibration slice after each when the pass is
// timed.
const driftGroup = 16

// driftPass runs every session once through a fresh detector and
// impairment chain. It returns, per step (driftGroup consecutive Feed
// calls of one session), each Feed call's wall time in seconds, then
// the pass's counts and the detectors. windowNs, when non-nil, collects
// the detectors' per-window processing times.
func driftPass(ss []*driftSession, c pipeline.Config, windowNs *metrics.LogHistogram, dt *driftTrace, cal *calibrator) ([][]float64, driftCounts, []*stream.Detector, error) {
	var steps [][]float64
	var total driftCounts
	var dets []*stream.Detector
	for _, s := range ss {
		mc := core.DefaultMonitorConfig()
		mc.Adapt = driftAdapt
		m := metrics.NewDetector()
		if windowNs != nil {
			m.WindowNanos = windowNs
		}
		truth := s.truth
		cfg := stream.Config{
			STFT:    c.STFT,
			Peaks:   c.Peaks,
			Denoise: c.Denoise,
			Monitor: mc,
			Impair: impair.NewChain(
				&impair.AWGN{SNRdB: 20, Seed: s.awgn},
				&impair.ClockSkew{PPM: 200},
				&impair.GainDrift{Std: 1e-6, Seed: s.gain},
			),
			Metrics:           m,
			GroundTruth:       func(w int) bool { return w < len(truth) && truth[w] },
			MaxHistoryWindows: 4096,
		}
		var tr *tracer
		if dt != nil {
			tr, cfg.Trace = dt.tr, dt.rec
		}
		det, err := stream.NewDetector(s.model, cfg)
		if err != nil {
			return nil, total, nil, err
		}
		var reports int64
		sig := s.signal
		for len(sig) > 0 {
			var ts []float64
			cal.step(func() error {
				for k := 0; k < driftGroup && len(sig) > 0; k++ {
					n := min(driftChunk, len(sig))
					t0 := time.Now()
					tr.begin("stream.Feed")
					reports += int64(len(det.Feed(sig[:n])))
					tr.end()
					ts = append(ts, time.Since(t0).Seconds())
					sig = sig[n:]
				}
				return nil
			})
			steps = append(steps, ts)
		}
		lat := m.LatencySTS.Snapshot()
		total.add(driftCounts{
			Windows:          m.Windows.Value(),
			Reports:          reports,
			TruePos:          m.TruePos.Value(),
			FalsePos:         m.FalsePos.Value(),
			TrueNeg:          m.TrueNeg.Value(),
			FalseNeg:         m.FalseNeg.Value(),
			KSTests:          m.KSTests.Value(),
			RegionSwitches:   m.RegionSwitches.Value(),
			DenoiseRefactors: m.DenoiseRefactors.Value(),
			AdaptUpdates:     m.AdaptUpdates.Value(),
			Episodes:         episodes(truth[:min(len(truth), int(m.Windows.Value()))]),
			Detections:       lat.Count,
		})
		dets = append(dets, det)
	}
	return steps, total, dets, nil
}

// episodes counts the maximal runs of injected windows.
func episodes(truth []bool) int64 {
	var n int64
	prev := false
	for _, t := range truth {
		if t && !prev {
			n++
		}
		prev = t
	}
	return n
}
