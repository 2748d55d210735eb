package dsp

import "fmt"

// STFTConfig describes how a continuous signal is cut into overlapping
// frames and transformed into Short-Term Spectra (STSs).
type STFTConfig struct {
	// WindowSize is the number of samples per frame. It must be positive.
	// Power-of-two sizes are fastest but not required.
	WindowSize int
	// HopSize is the number of samples between consecutive frame starts.
	// The paper uses 50% overlap, i.e. HopSize = WindowSize/2.
	HopSize int
	// Window is the taper applied before the FFT.
	Window WindowKind
	// SampleRate is the sample rate of the input signal in Hz. It is used
	// to convert bin indices to frequencies.
	SampleRate float64
}

// Validate reports whether the configuration is usable.
func (c STFTConfig) Validate() error {
	if c.WindowSize <= 0 {
		return fmt.Errorf("dsp: STFT window size must be positive, got %d", c.WindowSize)
	}
	if c.HopSize <= 0 {
		return fmt.Errorf("dsp: STFT hop size must be positive, got %d", c.HopSize)
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("dsp: STFT sample rate must be positive, got %g", c.SampleRate)
	}
	return nil
}

// BinFrequency converts a bin index of the one-sided spectrum to Hz.
func (c STFTConfig) BinFrequency(bin int) float64 {
	return float64(bin) * c.SampleRate / float64(c.WindowSize)
}

// HopDuration returns the time advance between consecutive frames in seconds.
func (c STFTConfig) HopDuration() float64 {
	return float64(c.HopSize) / c.SampleRate
}

// Frame is one Short-Term Spectrum: the one-sided power spectrum of a
// single windowed frame together with its position in the input signal.
type Frame struct {
	// Index is the frame number (0-based).
	Index int
	// Start is the sample index of the first sample in the frame.
	Start int
	// Power holds the one-sided power spectrum: Power[k] is the squared
	// magnitude of bin k, for k in [0, WindowSize/2].
	Power []float64
}

// STFT slices signal into overlapping frames and returns the one-sided power
// spectrum of each. Trailing samples that do not fill a window are dropped,
// matching the streaming behaviour of the monitoring pipeline.
//
// The hot loop runs the planned real-input FFT (conjugate symmetry halves
// the butterfly work), which applies the taper as it packs each frame,
// and reuses one transform scratch buffer and one shared Power backing
// array across all frames, so the per-frame allocation count is zero.
func STFT(signal []float64, cfg STFTConfig) ([]Frame, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(signal) < cfg.WindowSize {
		return nil, nil
	}
	win := Window(cfg.Window, cfg.WindowSize)
	nFrames := (len(signal)-cfg.WindowSize)/cfg.HopSize + 1
	half := cfg.WindowSize/2 + 1
	frames := make([]Frame, 0, nFrames)
	plan := PlanRFFT(cfg.WindowSize)
	work := make([]complex128, plan.WorkLen())
	powerAll := make([]float64, nFrames*half)
	for i := 0; i < nFrames; i++ {
		start := i * cfg.HopSize
		power := powerAll[i*half : (i+1)*half : (i+1)*half]
		plan.PowerInto(power, signal[start:start+cfg.WindowSize], win, work)
		frames = append(frames, Frame{Index: i, Start: start, Power: power})
	}
	return frames, nil
}

// Detrend returns a copy of the signal with its mean removed (AC
// coupling). Without it, the DC component leaks through the analysis
// window into the lowest bins and dominates the per-frame energy that the
// peak rule normalizes by.
func Detrend(signal []float64) []float64 {
	if len(signal) == 0 {
		return nil
	}
	var sum float64
	for _, v := range signal {
		sum += v
	}
	mean := sum / float64(len(signal))
	out := make([]float64, len(signal))
	for i, v := range signal {
		out[i] = v - mean
	}
	return out
}

// PowerSpectrum returns the one-sided power spectrum of the entire signal
// (a single real-input FFT, no framing). Useful for Fig 1-style
// whole-region spectra.
func PowerSpectrum(signal []float64) []float64 {
	n := len(signal)
	if n == 0 {
		return nil
	}
	plan := PlanRFFT(n)
	power := make([]float64, plan.SpectrumLen())
	work := make([]complex128, plan.WorkLen())
	plan.PowerInto(power, signal, nil, work)
	return power
}
