// Package stream provides the deployable, online form of EDDIE: a
// Detector that consumes raw receiver samples as they arrive (no whole-
// capture passes), buffers them into hop-spaced analysis windows, reduces
// each through the shared STS front end (core.Frontend) and feeds the
// result to the monitor. This is the software equivalent of the paper's
// envisioned low-cost receiver (§5.1: "ASIC block for STFT and peak
// finding, simple CPU for tests").
package stream

import (
	"fmt"
	"math"
	"time"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/impair"
	"eddie/internal/metrics"
	"eddie/internal/obs"
)

// Config describes the detector's signal front end.
type Config struct {
	// STFT is the window analysis configuration; SampleRate must match
	// the incoming sample stream.
	STFT dsp.STFTConfig
	// Peaks controls spectral peak extraction.
	Peaks dsp.PeakConfig
	// Denoise configures the optional SVD subspace denoising stage of the
	// front end, run on each power spectrum between the STFT and peak
	// extraction. The zero value builds no denoiser at all. Training
	// reduces its captures through the same core.Frontend, so a model
	// trained with a denoise config sees exactly the spectra a detector
	// with that config produces.
	Denoise dsp.DenoiseConfig
	// Monitor is the monitoring configuration. Its hooks (Stats, Trace,
	// Flight) are replaced by Metrics, Trace and Flight below, so a
	// detector has one attach point per hook.
	Monitor core.MonitorConfig
	// DisableDCBlock feeds samples through unmodified. Use it when the
	// input is already AC-coupled (e.g. a pre-detrended capture). The DC
	// blocker is the only stage the detector runs that the offline
	// reduction does not (it subtracts the capture's global mean
	// instead), so with it disabled a detrended capture yields the
	// offline STS sequence bit for bit (see the differential test).
	DisableDCBlock bool
	// Impair, when non-nil, is applied to the incoming samples before
	// any processing — fault injection for robustness testing. The
	// detector copies each chunk before impairing, so caller buffers are
	// never modified.
	Impair impair.Transform
	// Metrics, when non-nil, receives the detector's runtime counters
	// and histograms, and becomes the monitor's Stats hook.
	Metrics *metrics.Detector
	// GroundTruth, when non-nil, labels window indices as injected
	// ground truth; the detector then maintains false-positive/negative
	// counts and detection-latency histograms in Metrics.
	GroundTruth func(window int) bool
	// Tap, when non-nil, receives every completed STS just before it
	// reaches the monitor — for golden capture and differential testing.
	// The STS's PeakFreqs slice is reused across windows; taps that
	// retain it must copy.
	Tap func(sts *core.STS)
	// Trace, when non-nil, records spans for the detector's stages
	// (impair, then the front end's stft, denoise and peaks) on a
	// "stream" track, and becomes the monitor's Trace hook for its
	// per-window decision spans. Nil costs nothing.
	Trace *obs.Recorder
	// Flight, when non-nil, becomes the monitor's Flight hook: every
	// window's decision provenance lands in its ring and each fired
	// report snapshots an alarm dump.
	Flight *obs.FlightRecorder
	// MaxHistoryWindows bounds the monitor's retained per-window outcome
	// and report history. Zero keeps everything (the offline/evaluation
	// behaviour); a long-running deployment (e.g. a fleet session that
	// streams for days) should set it so memory stays flat. Trimming
	// never changes verdicts — only how much history stays readable.
	MaxHistoryWindows int
}

// dcTau is the time constant (in samples) of the streaming DC blocker:
// an exponential moving average subtracted from the input.
const dcTau = 2048

// Detector consumes raw samples and raises anomaly reports online.
type Detector struct {
	cfg     Config
	model   *core.Model
	monitor *core.Monitor

	fe       *core.Frontend
	buf      []float64 // pending samples (DC-blocked), len < WindowSize + HopSize
	chunkBuf []float64 // impairment scratch
	dcMean   float64
	dcInit   bool

	dnRefactor int64 // denoiser refactor count already published to Metrics

	samplesIn int64
	sanitized int64
	windows   int
	track     obs.Track

	// episode tracks ground-truth injection episodes for latency
	// accounting.
	episodeStart int
	episodeDone  bool
	prevInjected bool
}

// NewDetector creates a streaming detector for a trained model.
func NewDetector(model *core.Model, cfg Config) (*Detector, error) {
	if err := cfg.STFT.Validate(); err != nil {
		return nil, err
	}
	if cfg.STFT.HopSize > cfg.STFT.WindowSize {
		return nil, fmt.Errorf("stream: hop %d larger than window %d", cfg.STFT.HopSize, cfg.STFT.WindowSize)
	}
	if cfg.MaxHistoryWindows < 0 {
		return nil, fmt.Errorf("stream: negative history bound %d", cfg.MaxHistoryWindows)
	}
	cfg.Monitor.Stats = cfg.Metrics
	cfg.Monitor.Trace = cfg.Trace
	cfg.Monitor.Flight = cfg.Flight
	mon, err := core.NewMonitor(model, cfg.Monitor)
	if err != nil {
		return nil, err
	}
	fe, err := core.NewFrontend(cfg.STFT, cfg.Peaks, cfg.Denoise)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &Detector{
		cfg:          cfg,
		model:        model,
		monitor:      mon,
		fe:           fe,
		buf:          make([]float64, 0, cfg.STFT.WindowSize),
		episodeStart: -1,
		track:        cfg.Trace.Track("stream"),
	}, nil
}

// Feed pushes a batch of raw samples into the detector and returns the
// anomaly reports that fired while processing it (nil if none). Batches
// may be of any size, including single samples and empty chunks; the
// STS sequence depends only on the concatenated sample stream, never on
// how it was chunked. Non-finite samples (NaN, ±Inf — ADC glitches,
// corrupt transport frames) are replaced by zero and counted. The
// internal buffer never holds more than one analysis window.
func (d *Detector) Feed(samples []float64) []core.Report {
	before := len(d.monitor.Reports)
	d.feedChunk(samples)
	if len(d.monitor.Reports) == before {
		return nil
	}
	out := make([]core.Report, len(d.monitor.Reports)-before)
	copy(out, d.monitor.Reports[before:])
	return out
}

// FeedChunks feeds a sequence of sample chunks in order in a single
// call, returning the reports that fired across all of them. It is
// exactly equivalent to calling Feed once per chunk and concatenating
// the results — the STS sequence and every verdict depend only on the
// concatenated sample stream — but lets a batching caller (the fleet
// server's shard processors, which drain a session's whole frame queue
// in one scheduling turn) cross the detector boundary once per batch
// instead of once per frame. When no report fires it allocates nothing.
func (d *Detector) FeedChunks(chunks [][]float64) []core.Report {
	var out []core.Report
	for _, c := range chunks {
		// Snapshot per chunk, not once for the batch: feedChunk may trim
		// report history between chunks, which would invalidate an index
		// taken before the batch.
		before := len(d.monitor.Reports)
		d.feedChunk(c)
		if n := len(d.monitor.Reports) - before; n > 0 {
			out = append(out, d.monitor.Reports[before:]...)
		}
	}
	return out
}

// feedChunk pushes one chunk of raw samples through the front end and
// the monitor; fired reports accumulate in the monitor's history.
func (d *Detector) feedChunk(samples []float64) {
	if len(samples) == 0 {
		return
	}
	if limit := d.cfg.MaxHistoryWindows; limit > 0 && len(d.monitor.Outcomes) > limit {
		// Trim between batches only, so the report bookkeeping below (a
		// length taken before feeding) stays consistent within one call.
		d.monitor.TrimHistory(limit / 2)
	}
	if m := d.cfg.Metrics; m != nil {
		m.SamplesIn.Add(int64(len(samples)))
	}
	sanBefore := d.sanitized
	chunk := samples
	if d.cfg.Impair != nil {
		// Copy before impairing: transforms work in place and must not
		// modify the caller's buffer. Sanitize first so a corrupt sample
		// cannot poison the transform's internal state.
		d.chunkBuf = append(d.chunkBuf[:0], samples...)
		for i, s := range d.chunkBuf {
			if !isFinite(s) {
				d.chunkBuf[i] = 0
				d.sanitized++
			}
		}
		sp := d.track.Start("impair")
		chunk = d.cfg.Impair.Process(d.chunkBuf)
		sp.End()
	}
	for _, s := range chunk {
		if !isFinite(s) {
			s = 0
			d.sanitized++
		}
		if !d.cfg.DisableDCBlock {
			if !d.dcInit {
				d.dcMean = s
				d.dcInit = true
			}
			// Streaming DC blocker: subtract a slow EWMA of the input
			// (the offline pipeline subtracts the global mean instead).
			d.dcMean += (s - d.dcMean) / dcTau
			s -= d.dcMean
		}
		d.buf = append(d.buf, s)
		d.samplesIn++
		if len(d.buf) == d.cfg.STFT.WindowSize {
			d.processWindow()
			// Slide by one hop, reusing the backing array.
			n := copy(d.buf, d.buf[d.cfg.STFT.HopSize:])
			d.buf = d.buf[:n]
		}
	}
	if m := d.cfg.Metrics; m != nil && d.sanitized > sanBefore {
		m.Sanitized.Add(d.sanitized - sanBefore)
	}
}

// processWindow reduces the buffered WindowSize samples to an STS
// through the front end (its per-stage spans land on the stream track)
// and feeds the monitor. The offline pipeline walks captures through the
// same core.Frontend, so identical input samples yield an identical STS.
func (d *Detector) processWindow() {
	var t0 time.Time
	if d.cfg.Metrics != nil {
		t0 = time.Now()
	}
	sts := d.fe.Reduce(d.buf, d.track)
	sts.TimeSec = float64(d.samplesIn-int64(len(d.buf))) / d.cfg.STFT.SampleRate
	if d.cfg.Tap != nil {
		d.cfg.Tap(sts)
	}
	// Monitor.Observe copies the peak list into its ring, so the front
	// end's reused STS is never retained.
	reported := d.monitor.Observe(sts)
	if m := d.cfg.Metrics; m != nil {
		m.Windows.Inc()
		m.PeakCount.Observe(float64(len(sts.PeakFreqs)))
		m.WindowNanos.Record(int64(time.Since(t0)))
		if dn := d.fe.Denoiser(); dn != nil && dn.Refactors() > d.dnRefactor {
			m.DenoiseRefactors.Add(dn.Refactors() - d.dnRefactor)
			d.dnRefactor = dn.Refactors()
			m.DenoiseRank.Set(int64(dn.Rank()))
			m.DenoiseEnergyPct.Set(int64(dn.EnergyRatio()*100 + 0.5))
		}
	}
	d.scoreGroundTruth(reported)
	d.windows++
}

// scoreGroundTruth updates the truth-conditioned counters and latency
// histograms for the window that just completed.
func (d *Detector) scoreGroundTruth(reported bool) {
	if d.cfg.GroundTruth == nil {
		return
	}
	w := d.windows
	inj := d.cfg.GroundTruth(w)
	out, _ := d.monitor.OutcomeAt(w)
	flagged := out.Flagged
	if m := d.cfg.Metrics; m != nil {
		switch {
		case inj && flagged:
			m.TruePos.Inc()
		case inj && !flagged:
			m.FalseNeg.Inc()
		case !inj && flagged:
			m.FalsePos.Inc()
		default:
			m.TrueNeg.Inc()
		}
	}
	if inj && !d.prevInjected {
		d.episodeStart = w
		d.episodeDone = false
	}
	d.prevInjected = inj
	if reported && d.episodeStart >= 0 && !d.episodeDone {
		lat := w - d.episodeStart
		if m := d.cfg.Metrics; m != nil {
			m.LatencySTS.Observe(float64(lat))
			m.LatencySamples.Observe(float64(lat * d.cfg.STFT.HopSize))
		}
		d.episodeDone = true
	}
}

// Windows returns the number of STSs processed so far.
func (d *Detector) Windows() int { return d.windows }

// Sanitized returns how many non-finite input samples were replaced.
func (d *Detector) Sanitized() int64 { return d.sanitized }

// Buffered returns the number of samples currently pending (always less
// than one analysis window).
func (d *Detector) Buffered() int { return len(d.buf) }

// Monitor exposes the underlying monitor (reports, outcomes, current
// region estimate).
func (d *Detector) Monitor() *core.Monitor { return d.monitor }

// Denoiser exposes the subspace denoising stage, or nil when disabled.
func (d *Detector) Denoiser() *dsp.Denoiser { return d.fe.Denoiser() }

// isFinite reports whether s is neither NaN nor ±Inf.
func isFinite(s float64) bool {
	return !math.IsNaN(s) && !math.IsInf(s, 0)
}
