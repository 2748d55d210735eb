package dsp

import (
	"math"
	"testing"

	"eddie/internal/allocguard"
)

// synthSpectrum writes a low-rank "loop activity" spectrum into dst:
// a few stable spectral lines whose amplitudes breathe slowly across
// windows — the structure real region spectrograms have.
func synthSpectrum(dst []float64, window int) {
	for i := range dst {
		dst[i] = 0
	}
	lines := []struct {
		bin int
		amp float64
	}{{10, 40}, {21, 18}, {33, 9}, {47, 5}}
	phase := float64(window) * 0.07
	for li, l := range lines {
		if l.bin+1 >= len(dst) {
			continue
		}
		a := l.amp * (1 + 0.3*math.Sin(phase+float64(li)))
		dst[l.bin] += a
		dst[l.bin-1] += a * 0.3
		dst[l.bin+1] += a * 0.3
	}
}

// noisySpectrum is synthSpectrum plus deterministic broadband noise.
// Squared Gaussians model the exponential distribution AWGN has after
// the power spectrum (variance ≈ 2× squared mean): a flat floor the
// subspace keeps plus strong per-bin fluctuation it should remove.
func noisySpectrum(dst []float64, window int, noiseAmp float64, noise []float64) {
	synthSpectrum(dst, window)
	fillGaussian(noise, uint64(window)*2654435761+17)
	for i := range dst {
		dst[i] += noiseAmp * noise[i] * noise[i]
	}
}

func TestDenoiseConfigValidate(t *testing.T) {
	ok := []DenoiseConfig{
		{},                  // disabled
		{Rank: 4},           // all defaults
		{Rank: 1, Block: 2}, // minimal
		{Rank: 8, Block: 64, Stride: 64},
		{Rank: 3, Block: 16, Stride: 1, Seed: 9},
	}
	for _, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []DenoiseConfig{
		{Rank: -1},
		{Rank: 2, Block: 1},
		{Rank: 2, Block: -4},
		{Rank: 2, Block: 8, Stride: 9},
		{Rank: 2, Block: 8, Stride: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad config", c)
		}
	}
	if (DenoiseConfig{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if !(DenoiseConfig{Rank: 3}).Enabled() {
		t.Error("rank-3 config reports disabled")
	}
}

func TestNewDenoiserErrors(t *testing.T) {
	if _, err := NewDenoiser(DenoiseConfig{}, 64); err == nil {
		t.Error("NewDenoiser accepted a disabled config")
	}
	if _, err := NewDenoiser(DenoiseConfig{Rank: 2, Block: 1}, 64); err == nil {
		t.Error("NewDenoiser accepted block 1")
	}
	if _, err := NewDenoiser(DenoiseConfig{Rank: 2}, 0); err == nil {
		t.Error("NewDenoiser accepted 0 bins")
	}
}

// TestDenoiserWarmupPassthrough: until a full block has been seen the
// stage only sanitizes; values pass through bit-identically.
func TestDenoiserWarmupPassthrough(t *testing.T) {
	const bins = 64
	d, err := NewDenoiser(DenoiseConfig{Rank: 4, Block: 8}, bins)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bins)
	want := make([]float64, bins)
	for w := 0; w < 7; w++ { // block-1 windows
		synthSpectrum(buf, w)
		copy(want, buf)
		d.Push(buf)
		if !sameBitsSlice(buf, want) {
			t.Fatalf("warm-up window %d modified the spectrum", w)
		}
	}
	if d.Refactors() != 0 {
		t.Fatalf("refactored during warm-up: %d", d.Refactors())
	}
	synthSpectrum(buf, 7)
	copy(want, buf)
	d.Push(buf) // block is full: first factorization + projection
	if d.Refactors() != 1 {
		t.Fatalf("refactors after full block: %d, want 1", d.Refactors())
	}
	if sameBitsSlice(buf, want) {
		t.Error("first denoised window identical to input (projection did nothing)")
	}
}

// TestDenoiserRecoversSignal: on a low-rank spectrogram plus broadband
// noise, the denoised spectra are closer to the clean ones than the
// noisy inputs were — the property the whole stage exists for.
func TestDenoiserRecoversSignal(t *testing.T) {
	const bins, windows = 64, 200
	d, err := NewDenoiser(DenoiseConfig{Rank: 5, Block: 32, Stride: 8}, bins)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bins)
	clean := make([]float64, bins)
	noise := make([]float64, bins)
	var errNoisy, errDenoised float64
	for w := 0; w < windows; w++ {
		noisySpectrum(buf, w, 2.0, noise)
		synthSpectrum(clean, w)
		var en float64
		for i := range buf {
			dd := buf[i] - clean[i]
			en += dd * dd
		}
		d.Push(buf)
		if int64(w) < 32 {
			continue // warm-up windows pass through; score steady state only
		}
		errNoisy += en
		for i := range buf {
			dd := buf[i] - clean[i]
			errDenoised += dd * dd
			if math.IsNaN(buf[i]) || math.IsInf(buf[i], 0) || buf[i] < 0 {
				t.Fatalf("window %d bin %d: non-finite or negative output %v", w, i, buf[i])
			}
		}
	}
	if errDenoised >= errNoisy/2 {
		t.Errorf("denoising did not help enough: residual %.1f vs noisy %.1f (want < half)", errDenoised, errNoisy)
	}
	if r := d.EnergyRatio(); !(r > 0.5 && r <= 1) {
		t.Errorf("energy ratio %v outside (0.5, 1]", r)
	}
	if d.Rank() < 1 || d.Rank() > 5 {
		t.Errorf("effective rank %d outside [1,5]", d.Rank())
	}
}

// TestDenoiserDeterministic: two denoisers fed the same sequence emit
// bit-identical output — the contract the offline-vs-stream differential
// builds on.
func TestDenoiserDeterministic(t *testing.T) {
	const bins, windows = 64, 120
	mk := func() *Denoiser {
		d, err := NewDenoiser(DenoiseConfig{Rank: 4, Block: 16, Stride: 4, Seed: 77}, bins)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := mk(), mk()
	b1 := make([]float64, bins)
	b2 := make([]float64, bins)
	noise := make([]float64, bins)
	for w := 0; w < windows; w++ {
		noisySpectrum(b1, w, 1.0, noise)
		copy(b2, b1)
		d1.Push(b1)
		d2.Push(b2)
		if !sameBitsSlice(b1, b2) {
			t.Fatalf("window %d: outputs diverged", w)
		}
	}
	if d1.Refactors() != d2.Refactors() {
		t.Fatalf("refactor counts diverged: %d vs %d", d1.Refactors(), d2.Refactors())
	}
}

// TestDenoiserRefactorStride: the basis refactors once per stride, not
// per window.
func TestDenoiserRefactorStride(t *testing.T) {
	const bins = 32
	d, err := NewDenoiser(DenoiseConfig{Rank: 3, Block: 8, Stride: 4}, bins)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bins)
	for w := 0; w < 8+16; w++ {
		synthSpectrum(buf, w%20)
		d.Push(buf)
	}
	// Window 8 (1-indexed: the block-filling one) factorizes, then every
	// 4th window after: windows 8, 12, 16, 20, 24 → 5 factorizations.
	if d.Refactors() != 5 {
		t.Errorf("refactors = %d, want 5", d.Refactors())
	}
}

// TestDenoiserSteadyStateZeroAlloc: after warm-up, Push allocates
// nothing — projections and refactorizations both run on preallocated
// workspaces.
func TestDenoiserSteadyStateZeroAlloc(t *testing.T) {
	const bins = 129
	d, err := NewDenoiser(DenoiseConfig{Rank: 6, Block: 24, Stride: 6}, bins)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bins)
	noise := make([]float64, bins)
	w := 0
	for ; w < 80; w++ { // warm-up: fill block, run several refactors
		noisySpectrum(buf, w, 1.0, noise)
		d.Push(buf)
	}
	// A pass of 24 pushes spans four refactors (stride 6).
	allocguard.Zero(t, "steady-state Push", 3, 24, func(int) {
		noisySpectrum(buf, w, 1.0, noise)
		d.Push(buf)
		w++
	})
}

// TestDenoiserRankClamp: rank ≥ min(bins, block) clamps instead of
// failing, and the projection then reproduces the input (up to the
// clamped subspace being the whole space).
func TestDenoiserRankClamp(t *testing.T) {
	const bins = 6
	d, err := NewDenoiser(DenoiseConfig{Rank: 100, Block: 4}, bins)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, bins)
	for w := 0; w < 16; w++ {
		synthSpectrum2(buf, w)
		d.Push(buf)
		for _, v := range buf {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("window %d: bad output %v", w, v)
			}
		}
	}
	if d.Rank() > 4 {
		t.Errorf("effective rank %d exceeds min(bins, block)=4", d.Rank())
	}
}

// synthSpectrum2 is a tiny-bins variant of synthSpectrum.
func synthSpectrum2(dst []float64, window int) {
	for i := range dst {
		dst[i] = 1 + 0.5*math.Sin(float64(window)*0.3+float64(i))
	}
}
