package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

// FuzzFFTRoundTrip checks IFFT(FFT(x)) == x and Parseval's identity for
// arbitrary signal content and length.
func FuzzFFTRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			t.Skip()
		}
		x := make([]complex128, len(data))
		for i, b := range data {
			x[i] = complex(float64(b)-128, float64(b%7))
		}
		y := IFFT(FFT(x))
		for i := range x {
			if cmplx.Abs(x[i]-y[i]) > 1e-6*float64(len(x)+1) {
				t.Fatalf("round trip diverged at %d: %v vs %v", i, x[i], y[i])
			}
		}
		// Parseval.
		fx := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		ef /= float64(len(x))
		if math.Abs(et-ef) > 1e-6*(et+1) {
			t.Fatalf("Parseval violated: %g vs %g", et, ef)
		}
	})
}

// FuzzFindPeaks checks that peak extraction never panics, returns
// well-formed peaks for arbitrary power spectra, and matches the
// reference rule bit for bit.
func FuzzFindPeaks(f *testing.F) {
	f.Add([]byte{10, 0, 10, 0, 200, 0, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 4096 {
			t.Skip()
		}
		frame := Frame{Power: make([]float64, len(data))}
		for i, b := range data {
			frame.Power[i] = float64(b) * float64(b)
		}
		peaks := FindPeaks(&frame, PeakConfig{MinEnergyFraction: 0.01}, func(b int) float64 { return float64(b) })
		for i, p := range peaks {
			if p.Bin <= 0 || p.Bin >= len(data) {
				t.Fatalf("peak %d at bin %d outside spectrum", i, p.Bin)
			}
			if p.Fraction < 0.01 {
				t.Fatalf("peak %d below the energy threshold: %g", i, p.Fraction)
			}
			if i > 0 && peaks[i-1].Power < p.Power {
				t.Fatalf("peaks not sorted by power at %d", i)
			}
		}
		checkPeaksMatch(t, frame.Power, PeakConfig{MinEnergyFraction: 0.01, MinBin: int(data[0] % 8)})
	})
}
