package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eddie/internal/allocguard"
	"eddie/internal/dsp"
	"eddie/internal/obs"
)

// frontendTestSignal is a loop-like capture: a few harmonics of one
// fundamental plus a little noise, AC-coupled.
func frontendTestSignal(n int, stft dsp.STFTConfig) []float64 {
	r := rand.New(rand.NewSource(9))
	x := make([]float64, n)
	for i := range x {
		ts := float64(i) / stft.SampleRate
		for k := 1; k <= 4; k++ {
			x[i] += math.Sin(2*math.Pi*float64(k)*1.7e5*ts) / float64(k)
		}
		x[i] += 0.05 * r.NormFloat64()
	}
	return dsp.Detrend(x)
}

func frontendTestConfig() (dsp.STFTConfig, dsp.PeakConfig) {
	stft := dsp.STFTConfig{WindowSize: 256, HopSize: 96, Window: dsp.Hann, SampleRate: 2e6}
	peaks := dsp.DefaultPeakConfig()
	peaks.MinBin = 3
	return stft, peaks
}

// TestFrontendEdgeWindows covers the degenerate inputs: a capture
// shorter than one window reduces to an empty non-nil sequence, and an
// all-zero window reduces to an empty non-nil peak list and zero energy.
func TestFrontendEdgeWindows(t *testing.T) {
	stft, peaks := frontendTestConfig()
	fe, err := NewFrontend(stft, peaks, dsp.DenoiseConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fe.Capture(make([]float64, stft.WindowSize-1)); got == nil || len(got) != 0 {
		t.Errorf("short capture: %#v, want empty non-nil", got)
	}
	got := fe.Capture(make([]float64, stft.WindowSize))
	if len(got) != 1 || got[0].PeakFreqs == nil || len(got[0].PeakFreqs) != 0 || got[0].Energy != 0 {
		t.Errorf("zero window: %#v, want one peakless STS with zero energy", got)
	}
}

// TestFrontendReduceZeroAlloc pins the per-window cost the streaming
// detector pays: once scratch has grown, Reduce allocates nothing, with
// or without the denoiser and with tracing disabled. Each measured pass
// reduces every window of the capture.
func TestFrontendReduceZeroAlloc(t *testing.T) {
	stft, peaks := frontendTestConfig()
	const windows = 64
	x := frontendTestSignal(windows*stft.HopSize+stft.WindowSize, stft)
	for _, dn := range []dsp.DenoiseConfig{{}, {Rank: 3, Block: 8, Stride: 2, Seed: 4}} {
		fe, err := NewFrontend(stft, peaks, dn)
		if err != nil {
			t.Fatal(err)
		}
		fe.Capture(x) // warm-up: grow peak scratch, fill the denoiser ring
		allocguard.Zero(t, fmt.Sprintf("denoise %+v: Reduce", dn), 4, windows, func(i int) {
			start := i * stft.HopSize
			fe.Reduce(x[start:start+stft.WindowSize], obs.Track{})
		})
	}
}

func TestNewFrontendRejectsBadConfig(t *testing.T) {
	stft, peaks := frontendTestConfig()
	bad := stft
	bad.HopSize = 0
	if _, err := NewFrontend(bad, peaks, dsp.DenoiseConfig{}); err == nil {
		t.Error("accepted a zero hop")
	}
	if _, err := NewFrontend(stft, peaks, dsp.DenoiseConfig{Rank: 2, Block: 1}); err == nil {
		t.Error("accepted a one-window denoise block")
	}
}
