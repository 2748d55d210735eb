package main

import (
	"math"
	"testing"

	"eddie/internal/dsp"
)

// denoiseBenches builds the subspace-kernel benchmarks at the
// spectrogram shape the stream detector actually runs (257 bins from a
// 512-sample window, block 32, rank 6).
func denoiseBenches() []kernelBench {
	const (
		bins  = 257
		block = 32
		rank  = 6
	)
	// Synthetic power spectra: a few stable tones over a noise floor,
	// drifting slowly so refactors have real work to do.
	spectra := make([][]float64, 256)
	for w := range spectra {
		col := make([]float64, bins)
		for i := range col {
			col[i] = 1e-3 + 1e-4*math.Sin(float64(i*w+1))*math.Sin(float64(i*w+1))
		}
		for _, tone := range []int{17, 63, 120, 201} {
			col[tone+w%3] += 2.5
		}
		spectra[w] = col
	}

	return []kernelBench{
		{"RSVDFactor", bins, func(b *testing.B) {
			s, err := dsp.NewRSVD(dsp.RSVDConfig{Rank: rank, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			a := dsp.NewMat(bins, block)
			for j := 0; j < block; j++ {
				copy(a.Col(j), spectra[j])
			}
			u := dsp.NewMat(bins, rank)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Factor(u, a, uint64(i)+1)
			}
		}},
		{"Orthonormalize", bins, func(b *testing.B) {
			src := dsp.NewMat(bins, rank+4)
			for j := 0; j < src.Cols; j++ {
				copy(src.Col(j), spectra[j])
			}
			q := dsp.NewMat(bins, rank+4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.CopyFrom(src)
				dsp.Orthonormalize(q)
			}
		}},
		{"DenoisePush", bins, func(b *testing.B) {
			dn, err := dsp.NewDenoiser(dsp.DenoiseConfig{Rank: rank, Block: block, Stride: 8}, bins)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]float64, bins)
			for w := 0; w < 2*block; w++ { // warm past the fill phase
				copy(buf, spectra[w%len(spectra)])
				dn.Push(buf)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, spectra[i%len(spectra)])
				dn.Push(buf)
			}
		}},
	}
}

// runDenoiseBench times the subspace-denoising kernels and writes
// BENCH_denoise.json. The steady-state DenoisePush benchmark — the
// per-window cost the stream detector pays when denoising is on — is
// regression-gated on the median of gateRepeats runs.
func runDenoiseBench(path string) error {
	out := &benchFile{benchHeader: newBenchHeader()}
	for _, bm := range denoiseBenches() {
		if bm.name == "DenoisePush" {
			out.Results = append(out.Results, timeMedian(bm, gateRepeats))
		} else {
			out.Results = append(out.Results, timeBench(bm))
		}
	}
	return writeGated(path, out, []gatedMetric[benchFile]{nsPerOp("DenoisePush")})
}
