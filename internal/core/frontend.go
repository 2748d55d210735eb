package core

import (
	"eddie/internal/dsp"
	"eddie/internal/obs"
	"eddie/internal/stats"
)

// Frontend is the one STS producer (the paper's §5.1 front-end block
// for STFT and peak finding): it reduces a window of raw samples to an
// STS by taper, planned real-input FFT power, optional subspace
// denoising, peak extraction with parabolic refinement, frequency sort
// and AC energy. The streaming detector feeds it each completed window,
// the offline pipeline walks whole captures through it, and ExtractSTS
// shares its power→STS step, so training and monitoring run the same
// arithmetic. Reduce allocates nothing in steady state. A Frontend
// carries the denoiser's state and is not safe for concurrent use.
type Frontend struct {
	peakStep
	stft     dsp.STFTConfig
	win      []float64 // shared taper coefficients, read-only
	plan     *dsp.RFFTPlan
	work     []complex128
	power    []float64
	denoiser *dsp.Denoiser // nil when denoising is disabled
}

// peakStep is the front end's power→STS step on its own, which
// ExtractSTS applies to precomputed frames.
type peakStep struct {
	peakCfg dsp.PeakConfig
	binHz   func(int) float64 // bound once: a per-window method value allocates
	binW    float64
	frame   dsp.Frame
	found   []dsp.Peak
	sts     STS
}

func newPeakStep(stftCfg dsp.STFTConfig, peakCfg dsp.PeakConfig) peakStep {
	return peakStep{
		peakCfg: peakCfg,
		binHz:   stftCfg.BinFrequency,
		binW:    stftCfg.SampleRate / float64(stftCfg.WindowSize),
	}
}

// NewFrontend builds a front end for windows of stftCfg.WindowSize
// samples. A zero denoise config builds no denoiser at all.
func NewFrontend(stftCfg dsp.STFTConfig, peakCfg dsp.PeakConfig, denoise dsp.DenoiseConfig) (*Frontend, error) {
	if err := stftCfg.Validate(); err != nil {
		return nil, err
	}
	f := &Frontend{peakStep: newPeakStep(stftCfg, peakCfg), stft: stftCfg}
	f.plan = dsp.PlanRFFT(stftCfg.WindowSize)
	f.win = dsp.SharedWindow(stftCfg.Window, stftCfg.WindowSize)
	f.work = make([]complex128, f.plan.WorkLen())
	f.power = make([]float64, f.plan.SpectrumLen())
	if denoise.Enabled() {
		dn, err := dsp.NewDenoiser(denoise, f.plan.SpectrumLen())
		if err != nil {
			return nil, err
		}
		f.denoiser = dn
	}
	return f, nil
}

// Reduce turns one window of exactly WindowSize samples into the front
// end's reused STS, setting only PeakFreqs and Energy; the next call
// overwrites both, so callers that keep them must copy. The stages
// record "stft", "denoise" and "peaks" spans on tk.
func (f *Frontend) Reduce(samples []float64, tk obs.Track) *STS {
	sp := tk.Start("stft")
	f.plan.PowerInto(f.power, samples, f.win, f.work)
	sp.End()
	if f.denoiser != nil {
		sp = tk.Start("denoise")
		f.denoiser.Push(f.power)
		sp.End()
	}
	sp = tk.Start("peaks")
	sts := f.fromPower(f.power)
	sp.End()
	return sts
}

// fromPower reduces one power spectrum to the reused STS: peaks
// (frequency-refined, sorted ascending) and the energy of the bins from
// the peak rule's first candidate bin up, which is the band total the
// peak rule has already summed.
func (p *peakStep) fromPower(power []float64) *STS {
	p.frame.Power = power
	var energy float64
	p.found, energy = dsp.FindPeaksInto(p.found[:0], &p.frame, p.peakCfg, p.binHz)
	freqs := p.sts.PeakFreqs[:0]
	for _, pk := range p.found {
		freqs = append(freqs, dsp.InterpolatePeakFrequency(&p.frame, pk.Bin, p.binW))
	}
	stats.Sort(freqs)
	p.sts = STS{PeakFreqs: freqs, Energy: energy}
	return &p.sts
}

// Capture reduces a whole AC-coupled capture: STS i covers the window
// starting at sample i·HopSize, for every window that fits (trailing
// samples are dropped, as by dsp.STFT and the streaming detector). Each
// STS owns a fresh, non-nil PeakFreqs and carries its start time. No
// per-window spans are recorded: the capture is one stage of its
// caller's trace.
func (f *Frontend) Capture(x []float64) []STS {
	ws, hop := f.stft.WindowSize, f.stft.HopSize
	out := make([]STS, 0, max(len(x)-ws+hop, 0)/hop)
	for start := 0; start+ws <= len(x); start += hop {
		s := f.Reduce(x[start:start+ws], obs.Track{}).owned()
		s.TimeSec = float64(start) / f.stft.SampleRate
		out = append(out, s)
	}
	return out
}

// Denoiser returns the subspace denoising stage, or nil when disabled.
func (f *Frontend) Denoiser() *dsp.Denoiser { return f.denoiser }

// owned copies a reused STS into one with its own non-nil PeakFreqs.
func (s *STS) owned() STS {
	c := *s
	c.PeakFreqs = append(make([]float64, 0, len(s.PeakFreqs)), s.PeakFreqs...)
	return c
}
