// Package core implements EDDIE itself: training a model of normal
// execution from reference Short-Term Spectra (STSs) and monitoring a
// stream of STSs for statistical deviations using per-peak two-sample
// Kolmogorov–Smirnov tests, following §4 of the paper.
package core

import (
	"eddie/internal/cfg"
	"eddie/internal/dsp"
	"eddie/internal/trace"
)

// STS is one Short-Term Spectrum reduced to the representation EDDIE
// operates on: the frequencies of its spectral peaks ordered strongest
// first, plus ground-truth annotations used in training and evaluation
// (never by the monitor's decision logic).
type STS struct {
	// PeakFreqs holds the frequencies (Hz) of the window's spectral
	// peaks, sorted ascending. Indexing by frequency order rather than
	// strength order keeps each rank's distribution sharp: peak *powers*
	// jitter between windows (reordering a strength ranking), while the
	// frequency ladder of a loop's harmonics is stable — and an injection
	// that changes the loop period moves every rung of the ladder.
	PeakFreqs []float64
	// Energy is the window's total AC spectral energy (the bins above the
	// DC/drift guard band). Loops emit strong periodic modulation; flat
	// activity (e.g. an empty injected spin loop) emits almost none, so
	// the energy level is a robust side channel alongside the peaks.
	Energy float64
	// Region is the ground-truth region label (training/evaluation only).
	Region cfg.RegionID
	// Injected is the ground-truth attack label (evaluation only).
	Injected bool
	// TimeSec is the window start time within its run.
	TimeSec float64
}

// PeakAt returns the rank-k peak frequency, or 0 if the STS has fewer
// peaks. Zero doubles as the "no such peak" frequency: real peaks exclude
// DC, so 0 never collides with an observed peak and systematically missing
// ranks shift the compared distribution, which is exactly the evidence the
// K-S test should see.
func (s *STS) PeakAt(k int) float64 {
	if k < 0 || k >= len(s.PeakFreqs) {
		return 0
	}
	return s.PeakFreqs[k]
}

// ExtractSTS converts labeled STFT frames into the STS sequence of one
// run. stftCfg must match the frames; peakCfg controls peak extraction
// (DefaultPeakConfig matches the paper's 1%-of-energy rule). It runs the
// front end's power→STS step on each frame, so it equals Capture of a
// Frontend built without denoising over the frames' samples (with
// denoising, push the frames through the denoiser first, as
// pipeline.TestReduceMatchesFrameComposition does); every STS owns a
// fresh, non-nil PeakFreqs.
func ExtractSTS(frames []trace.LabeledFrame, stftCfg dsp.STFTConfig, peakCfg dsp.PeakConfig) []STS {
	out := make([]STS, 0, len(frames))
	step := newPeakStep(stftCfg, peakCfg)
	for i := range frames {
		f := &frames[i]
		s := step.fromPower(f.Frame.Power).owned()
		s.Region, s.Injected, s.TimeSec = f.Region, f.Injected, f.TimeSec
		out = append(out, s)
	}
	return out
}
