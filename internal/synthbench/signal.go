package synthbench

import (
	"math"
	"math/rand"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/dsp"
)

// The fleet-load benchmark needs raw sample streams, not STS windows:
// fleet clients ship float64 samples over the wire and the server runs
// the whole decode → STFT → peaks → K-S pipeline per session. The
// generators here synthesize deterministic captures whose spectra look
// like the STS-level generators above — harmonics of baseHz(0), clean
// or uniformly shifted — so one single-region model cleanly separates
// the two stream kinds.

// FleetSTFT is the capture format the fleet-load benchmark generates
// for: 2 MHz sample rate, the paper's 1024-sample Hann window with 75%
// overlap. baseHz(0)'s first five harmonics (100–500 kHz) sit well
// below the 1 MHz Nyquist limit.
func FleetSTFT() dsp.STFTConfig {
	return dsp.STFTConfig{
		WindowSize: 1024,
		HopSize:    256,
		Window:     dsp.Hann,
		SampleRate: 2e6,
	}
}

// FleetPeaks is the peak configuration the fleet-load benchmarks pair
// with FleetSTFT: the 2%-of-AC-energy rule with the lowest bins
// excluded, as the offline pipeline's default.
func FleetPeaks() dsp.PeakConfig {
	p := dsp.DefaultPeakConfig()
	p.MinEnergyFraction = 0.02
	p.MinBin = 3
	return p
}

// signalPeaks is the harmonic count of a synthetic capture.
const signalPeaks = 5

// Signal synthesizes n samples: signalPeaks harmonics of baseHz(0)
// with 1/k amplitude falloff plus low-level deterministic noise, all
// scaled by shift (1 = in-distribution; 1.05 defeats every training
// mode, mirroring Stream's anomalous variant). Same seed, same samples.
func Signal(n int, stft dsp.STFTConfig, seed int64, shift float64) []float64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	dt := 1 / stft.SampleRate
	for k := 1; k <= signalPeaks; k++ {
		f := baseHz(0) * float64(k) * shift
		amp := 1 / float64(k)
		phase := r.Float64() * 2 * math.Pi
		w := 2 * math.Pi * f
		for i := range out {
			out[i] += amp * math.Sin(w*float64(i)*dt+phase)
		}
	}
	for i := range out {
		out[i] += r.NormFloat64() * 0.02
	}
	return out
}

// TrainSignalModel trains a single-region model on nRuns clean
// synthetic captures of samplesPerRun samples each, reduced exactly the
// way the fleet server reduces live streams (detrend, then the shared
// core.Frontend). Every window is labeled with the machine's one loop
// region, so the monitor starts there and stays there — the steady
// in-region regime a dense fleet node lives in.
func TrainSignalModel(nRuns, samplesPerRun int, stft dsp.STFTConfig, peakCfg dsp.PeakConfig) (*core.Model, *cfg.Machine, error) {
	m, err := Machine(1)
	if err != nil {
		return nil, nil, err
	}
	region := m.LoopRegionOf(0)
	runs := make([][]core.STS, nRuns)
	for i := range runs {
		if runs[i], err = SignalSTS(samplesPerRun, stft, peakCfg, int64(i+1), 1); err != nil {
			return nil, nil, err
		}
		for j := range runs[i] {
			runs[i][j].Region = region
		}
	}
	model, err := core.Train("synthfleet", m, runs, core.DefaultTrainConfig())
	if err != nil {
		return nil, nil, err
	}
	return model, m, nil
}

// SignalSTS reduces Signal(n, stft, seed, shift) to STS windows the way
// the fleet server reduces live streams: detrend, then a core.Frontend
// without denoising.
func SignalSTS(n int, stft dsp.STFTConfig, peakCfg dsp.PeakConfig, seed int64, shift float64) ([]core.STS, error) {
	fe, err := core.NewFrontend(stft, peakCfg, dsp.DenoiseConfig{})
	if err != nil {
		return nil, err
	}
	return fe.Capture(dsp.Detrend(Signal(n, stft, seed, shift))), nil
}
