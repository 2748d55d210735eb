package main

import (
	"math"
	"testing"

	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/obs"
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
	// The front end's per-window kernels at the offline IoT window (512)
	// and the fleet window (1024): the tapered real-FFT power spectrum,
	// then the whole Reduce (taper, power, peaks, energy) over windows
	// one 256-sample hop apart.
	for _, n := range []int{512, 1024} {
		benches = append(benches, kernelBench{"RFFTPower", n, func(b *testing.B) {
			plan := dsp.PlanRFFT(n)
			win := dsp.Window(dsp.Hann, n)
			power := make([]float64, plan.SpectrumLen())
			work := make([]complex128, plan.WorkLen())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				plan.PowerInto(power, sig[:n], win, work)
			}
		}})
	}
	for _, n := range []int{512, 1024} {
		benches = append(benches, kernelBench{"FrontendReduce", n, func(b *testing.B) {
			const hop = 256
			fe, err := core.NewFrontend(dsp.STFTConfig{WindowSize: n, HopSize: hop, Window: dsp.Hann, SampleRate: 2e6},
				dsp.PeakConfig{MinEnergyFraction: 0.02, MinBin: 3}, dsp.DenoiseConfig{})
			if err != nil {
				b.Fatal(err)
			}
			windows := (len(sig) - n) / hop
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				start := (i % windows) * hop
				fe.Reduce(sig[start:start+n], obs.Track{})
			}
		}})
	}
	// The subspace kernels ride along so BENCH_dsp.json stays the one
	// per-kernel reference file; -denoise-bench runs just them, gated.
	benches = append(benches, denoiseBenches()...)

	return writeGated(path, runBenches(benches), nil)
}
