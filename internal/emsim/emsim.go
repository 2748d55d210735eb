// Package emsim models the electromagnetic side channel between the
// monitored processor and EDDIE's receiver.
//
// Physics background (paper §2, Fig 1): processor activity amplitude-
// modulates existing periodic signals — most strongly the clock — so a
// loop with per-iteration period T produces sidebands at Fclock ± 1/T.
// Demodulating around the carrier recovers a baseband signal whose
// spectrum contains a peak at 1/T.
//
// Because simulating a GHz carrier sample-by-sample is infeasible, the
// channel is modeled at complex baseband (the standard equivalent-lowpass
// representation): the received signal is
//
//	r[n] = g[n] · (1 + k·m[n]) · e^{jφ[n]} + Σ_i a_i·e^{j2πf_i n/Fs} + w[n]
//
// where m[n] is the (normalized) power trace, g[n] a slow gain drift,
// φ[n] oscillator phase noise, the sum narrow-band RF interferers, and
// w[n] complex AWGN set by the SNR. The receiver applies envelope
// detection |r[n]|, recovering m[n] plus noise — the same signal an AM
// demodulator locked to the clock carrier would produce. This preserves
// exactly the spectral features EDDIE uses while staying laptop-feasible;
// see DESIGN.md §2.
package emsim

import (
	"fmt"
	"math"
	"math/rand"

	"eddie/internal/stats"
)

// Interferer is one narrow-band RF interference tone.
type Interferer struct {
	// FreqHz is the tone's offset from the carrier.
	FreqHz float64
	// RelAmp is the tone amplitude relative to the carrier.
	RelAmp float64
}

// ChannelConfig describes the EM path and receiver front end.
type ChannelConfig struct {
	// SampleRate of the baseband signal in Hz (must match the power
	// trace's sample rate).
	SampleRate float64
	// ModIndex is the AM modulation depth applied to the normalized
	// power trace (0 < ModIndex <= 1 for distortion-free envelope
	// detection).
	ModIndex float64
	// SNRdB is the ratio of carrier power to noise power in dB.
	SNRdB float64
	// PhaseNoiseStd is the per-sample standard deviation (radians) of the
	// oscillator phase random walk.
	PhaseNoiseStd float64
	// GainDriftStd is the per-sample standard deviation of the slow
	// multiplicative gain random walk (models antenna coupling drift).
	GainDriftStd float64
	// Interferers are additive narrow-band tones.
	Interferers []Interferer
	// Seed drives all channel randomness.
	Seed int64
}

// DefaultChannel returns a realistic office-environment channel: 25 dB
// SNR, mild phase noise and drift, two FM-broadcast-like interferers.
func DefaultChannel(sampleRate float64) ChannelConfig {
	return ChannelConfig{
		SampleRate:    sampleRate,
		ModIndex:      0.5,
		SNRdB:         25,
		PhaseNoiseStd: 2e-4,
		GainDriftStd:  2e-6,
		Interferers: []Interferer{
			{FreqHz: sampleRate * 0.137, RelAmp: 0.01},
			{FreqHz: sampleRate * 0.311, RelAmp: 0.006},
		},
		Seed: 1,
	}
}

// Validate checks the channel parameters.
func (c ChannelConfig) Validate() error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("emsim: sample rate must be positive, got %g", c.SampleRate)
	}
	if c.ModIndex <= 0 || c.ModIndex > 1 {
		return fmt.Errorf("emsim: modulation index must be in (0,1], got %g", c.ModIndex)
	}
	return nil
}

// Transmit passes the power trace through the EM channel and receiver,
// returning the demodulated (envelope-detected) signal, one output sample
// per input sample.
func Transmit(power []float64, cfg ChannelConfig) ([]float64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(power) == 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Automatic gain control: normalize by a *rolling* mean and sigma
	// (exponential moving averages with a ~agcTau-sample time constant)
	// and clip at ±3 sigma. Raw power traces contain rare, huge
	// DRAM-access spikes, and distinct program phases differ in level; a
	// real AM front end adapts its gain on a millisecond time constant
	// rather than to whole-capture statistics, so a high-power episode
	// (e.g. an injected burst) must not depress the modulation depth of
	// the rest of the signal.
	const agcTau = 2048.0
	const agcAlpha = 1 / agcTau
	warm := len(power)
	if warm > int(agcTau) {
		warm = int(agcTau)
	}
	mean := stats.Mean(power[:warm])
	variance := stats.Variance(power[:warm])
	if variance == 0 {
		variance = 1
	}

	// Carrier amplitude 1; noise sigma per I/Q component from SNR.
	noisePower := math.Pow(10, -cfg.SNRdB/10)
	sigma := math.Sqrt(noisePower / 2)

	// steps[i] is interferer i's phase advance per sample. Each angle
	// below takes one math.Sincos, which returns the same bits as
	// separate math.Sin and math.Cos calls for less work.
	twoPiOverFs := 2 * math.Pi / cfg.SampleRate
	steps := make([]float64, len(cfg.Interferers))
	for i, it := range cfg.Interferers {
		steps[i] = twoPiOverFs * it.FreqHz
	}

	out := make([]float64, len(power))
	phase := 0.0
	gain := 1.0
	for n, p := range power {
		dev := p - mean
		mean += agcAlpha * dev
		variance += agcAlpha * (dev*dev - variance)
		scale := 3 * math.Sqrt(variance)
		if scale <= 0 {
			scale = 1
		}
		m := dev / scale
		if m > 1 {
			m = 1
		} else if m < -1 {
			m = -1
		}
		amp := gain * (1 + cfg.ModIndex*m)
		sin, cos := math.Sincos(phase)
		re := amp * cos
		im := amp * sin
		for i, it := range cfg.Interferers {
			sin, cos := math.Sincos(steps[i] * float64(n))
			re += it.RelAmp * cos
			im += it.RelAmp * sin
		}
		re += rng.NormFloat64() * sigma
		im += rng.NormFloat64() * sigma
		out[n] = math.Sqrt(re*re + im*im)

		phase += rng.NormFloat64() * cfg.PhaseNoiseStd
		gain += rng.NormFloat64() * cfg.GainDriftStd
		if gain < 0.5 {
			gain = 0.5
		} else if gain > 1.5 {
			gain = 1.5
		}
	}
	return out, nil
}

// SynthesizeAM builds the passband signal of Fig 1: a carrier at
// carrierHz amplitude-modulated by the power trace, sampled at
// sampleRate. Used to show the carrier peak with its ±1/T sidebands.
func SynthesizeAM(power []float64, carrierHz, sampleRate, modIndex float64) []float64 {
	if len(power) == 0 {
		return nil
	}
	mean := stats.Mean(power)
	scale := 3 * stats.StdDev(power)
	if scale == 0 {
		scale = 1
	}
	out := make([]float64, len(power))
	w := 2 * math.Pi * carrierHz / sampleRate
	for n, p := range power {
		m := (p - mean) / scale
		if m > 1 {
			m = 1
		} else if m < -1 {
			m = -1
		}
		out[n] = (1 + modIndex*m) * math.Cos(w*float64(n))
	}
	return out
}
