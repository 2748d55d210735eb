package emsim

import (
	"math"
	"testing"

	"eddie/internal/dsp"
)

// loopLikePower builds a power trace with a strong periodic component at
// the given frequency.
func loopLikePower(n int, freq, fs float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 50 + 10*math.Sin(2*math.Pi*freq*float64(i)/fs) + 2*math.Sin(0.001*float64(i))
	}
	return out
}

func strongestPeakHz(signal []float64, fs float64) float64 {
	cfg := dsp.STFTConfig{WindowSize: 1024, HopSize: 512, Window: dsp.Hann, SampleRate: fs}
	frames, err := dsp.STFT(dsp.Detrend(signal), cfg)
	if err != nil || len(frames) == 0 {
		return -1
	}
	f := &frames[len(frames)/2]
	peaks := dsp.FindPeaks(f, dsp.PeakConfig{MinEnergyFraction: 0.01, MinBin: 3}, cfg.BinFrequency)
	if len(peaks) == 0 {
		return -1
	}
	return peaks[0].Frequency
}

func TestTransmitPreservesLoopFrequency(t *testing.T) {
	const fs = 12.5e6
	const loopHz = 400e3
	power := loopLikePower(1<<15, loopHz, fs)
	cfg := DefaultChannel(fs)
	rx, err := Transmit(power, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rx) != len(power) {
		t.Fatalf("length changed: %d -> %d", len(power), len(rx))
	}
	got := strongestPeakHz(rx, fs)
	if math.Abs(got-loopHz) > fs/1024 {
		t.Errorf("strongest received peak at %.0f Hz, want ~%.0f", got, loopHz)
	}
}

func TestTransmitNoiseScalesWithSNR(t *testing.T) {
	const fs = 12.5e6
	power := loopLikePower(1<<14, 300e3, fs)
	residual := func(snr float64) float64 {
		cfg := DefaultChannel(fs)
		cfg.SNRdB = snr
		cfg.Interferers = nil
		cfg.PhaseNoiseStd = 0
		cfg.GainDriftStd = 0
		rx, err := Transmit(power, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Noise floor: median of the spectrum away from the tone.
		spec := dsp.PowerSpectrum(dsp.Detrend(rx[:8192]))
		var sum float64
		n := 0
		for i := len(spec) / 2; i < len(spec); i++ {
			sum += spec[i]
			n++
		}
		return sum / float64(n)
	}
	lo := residual(40)
	hi := residual(10)
	if hi <= lo*10 {
		t.Errorf("noise floor at 10 dB SNR (%.3g) should be far above 40 dB SNR (%.3g)", hi, lo)
	}
}

func TestTransmitInterferersVisible(t *testing.T) {
	const fs = 12.5e6
	power := make([]float64, 1<<14) // silent device
	for i := range power {
		power[i] = 40
	}
	cfg := DefaultChannel(fs)
	cfg.SNRdB = 60
	cfg.PhaseNoiseStd = 0
	cfg.GainDriftStd = 0
	cfg.Interferers = []Interferer{{FreqHz: 1e6, RelAmp: 0.2}}
	rx, err := Transmit(power, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := strongestPeakHz(rx, fs)
	if math.Abs(got-1e6) > fs/1024 {
		t.Errorf("interferer beat at %.0f Hz, want ~1 MHz", got)
	}
}

func TestTransmitValidation(t *testing.T) {
	if _, err := Transmit([]float64{1}, ChannelConfig{SampleRate: 0, ModIndex: 0.5}); err == nil {
		t.Error("zero sample rate accepted")
	}
	if _, err := Transmit([]float64{1}, ChannelConfig{SampleRate: 1e6, ModIndex: 0}); err == nil {
		t.Error("zero modulation index accepted")
	}
	if _, err := Transmit([]float64{1}, ChannelConfig{SampleRate: 1e6, ModIndex: 2}); err == nil {
		t.Error("modulation index > 1 accepted")
	}
	out, err := Transmit(nil, DefaultChannel(1e6))
	if err != nil || out != nil {
		t.Errorf("empty input: out=%v err=%v", out, err)
	}
}

func TestTransmitDeterministicPerSeed(t *testing.T) {
	const fs = 12.5e6
	power := loopLikePower(4096, 200e3, fs)
	cfg := DefaultChannel(fs)
	a, _ := Transmit(power, cfg)
	b, _ := Transmit(power, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical output")
		}
	}
	cfg.Seed = 999
	c, _ := Transmit(power, cfg)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seed gave identical output")
	}
}

func TestSynthesizeAMSidebands(t *testing.T) {
	const fs = 12.5e6
	// Bin-centered frequencies avoid spectral leakage skewing the
	// symmetry check (8192-point spectrum below).
	binW := fs / 8192
	loopHz := 328 * binW // ~500 kHz
	carrier := 2048 * binW
	power := loopLikePower(1<<14, loopHz, fs)
	pass := SynthesizeAM(power, carrier, fs, 0.5)
	spec := dsp.PowerSpectrum(pass[:8192])
	binHz := fs / 8192
	peakAt := func(f float64) float64 {
		bin := int(f/binHz + 0.5)
		peak := 0.0
		for b := bin - 2; b <= bin+2; b++ {
			if b >= 0 && b < len(spec) && spec[b] > peak {
				peak = spec[b]
			}
		}
		return peak
	}
	carrierP := peakAt(carrier)
	upper := peakAt(carrier + loopHz)
	lower := peakAt(carrier - loopHz)
	floor := peakAt(carrier + 2.7*loopHz)
	if carrierP <= upper || carrierP <= lower {
		t.Error("carrier should dominate the sidebands")
	}
	if upper < 100*floor || lower < 100*floor {
		t.Errorf("sidebands (%.3g/%.3g) should stand far above the floor (%.3g)", upper, lower, floor)
	}
	if math.Abs(upper-lower)/upper > 0.25 {
		t.Errorf("AM sidebands should be symmetric: %.3g vs %.3g", upper, lower)
	}
}

// BenchmarkTransmit reports channel throughput in samples per second:
// a loop-like power trace through the default channel with its two
// interferers.
func BenchmarkTransmit(b *testing.B) {
	const fs = 12.5e6
	power := loopLikePower(1<<18, 400e3, fs)
	cfg := DefaultChannel(fs)
	for i := 0; i < b.N; i++ {
		if _, err := Transmit(power, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(power))/b.Elapsed().Seconds(), "samples/s")
}
