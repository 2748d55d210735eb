package main

import (
	"math"
	"testing"

	"eddie/internal/dsp"
)

// runDSPBench times the DSP kernels and writes BENCH_dsp.json (ungated:
// the per-kernel reference file).
func runDSPBench(path string) error {
	sig := make([]float64, 1<<17)
	for i := range sig {
		sig[i] = math.Sin(2*math.Pi*float64(i)/64) + 0.25*math.Sin(2*math.Pi*float64(i)/7)
	}
	stftCfg := dsp.STFTConfig{WindowSize: 1024, HopSize: 512, Window: dsp.Hann, SampleRate: 1e6}

	benches := []kernelBench{
		{"FFTPow2", 1024, func(b *testing.B) {
			x := make([]complex128, 1024)
			for i := range x {
				x[i] = complex(sig[i], 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.FFT(x)
			}
		}},
		{"FFTBluestein", 1000, func(b *testing.B) {
			x := make([]complex128, 1000)
			for i := range x {
				x[i] = complex(sig[i], 0)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.FFT(x)
			}
		}},
		{"FFTReal", 1024, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.FFTReal(sig[:1024])
			}
		}},
		{"STFT", len(sig), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := dsp.STFT(sig, stftCfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"PowerSpectrum", 1 << 14, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dsp.PowerSpectrum(sig[:1<<14])
			}
		}},
	}
	// The subspace kernels ride along so BENCH_dsp.json stays the one
	// per-kernel reference file; -denoise-bench runs just them, gated.
	benches = append(benches, denoiseBenches()...)

	return writeGated(path, runBenches(benches), nil)
}
