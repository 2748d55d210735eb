package dsp

import (
	"fmt"
	"math"
)

// DenoiseConfig controls the subspace denoising stage that sits between
// the STFT and peak extraction. The zero value disables denoising.
//
// The stage projects every power spectrum onto the dominant rank-k
// subspace of a sliding spectrogram block: loop activity concentrates in
// a few stable spectral directions while channel noise spreads over all
// of them, so the projection keeps the periodic structure and discards
// most of the noise energy (Miller et al., "Detecting Code Injections in
// Noisy Environments Through EM Signal Analysis and SVD Denoising").
type DenoiseConfig struct {
	// Rank is the subspace dimension k. Zero disables the stage
	// entirely; the detector then behaves bit-identically to a build
	// without the denoiser.
	Rank int
	// Block is the sliding spectrogram block length in windows (the
	// column count of the factored matrix). Zero means 32.
	Block int
	// Stride is how many new windows arrive between refactorizations.
	// Between refactors, incoming windows are projected onto the current
	// basis — an O(bins·rank) incremental update instead of an O(bins·
	// block·rank) factorization — so the steady-state per-window cost is
	// the projection plus 1/Stride of a factorization. Zero means
	// Block/4 (minimum 1).
	Stride int
	// Seed seeds the factorization sketches. Each refactorization mixes
	// the seed with its ordinal, so a denoiser's output is a pure
	// function of (config, column sequence) — reproducible at any worker
	// count and across processes. Zero means 1 (a zero splitmix64 seed
	// is valid but keeping 0 == "default" mirrors the impair layer).
	Seed uint64
}

// Enabled reports whether the configuration turns denoising on.
func (c DenoiseConfig) Enabled() bool { return c.Rank != 0 }

// WithDefaults returns the configuration with zero fields replaced by
// their documented defaults — the values a Denoiser actually runs with.
func (c DenoiseConfig) WithDefaults() DenoiseConfig { return c.withDefaults() }

// withDefaults fills zero fields with their documented defaults.
func (c DenoiseConfig) withDefaults() DenoiseConfig {
	if c.Block == 0 {
		c.Block = 32
	}
	if c.Stride == 0 {
		c.Stride = c.Block / 4
		if c.Stride < 1 {
			c.Stride = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Validate reports whether the configuration is usable. The zero value
// (disabled) is always valid.
func (c DenoiseConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	if c.Rank < 1 {
		return fmt.Errorf("dsp: denoise rank %d < 1", c.Rank)
	}
	c = c.withDefaults()
	if c.Block < 2 {
		return fmt.Errorf("dsp: denoise block %d < 2 windows", c.Block)
	}
	if c.Stride < 1 || c.Stride > c.Block {
		return fmt.Errorf("dsp: denoise stride %d outside [1, block=%d]", c.Stride, c.Block)
	}
	return nil
}

// Denoiser is the streaming subspace denoising stage. It is not safe
// for concurrent use; every detector owns its own instance. After the
// warm-up block it performs zero heap allocations per Push.
type Denoiser struct {
	cfg  DenoiseConfig
	bins int

	ring  Mat // bins×block ring of the most recent columns
	head  int // next ring slot to overwrite
	seen  int64
	since int // columns since the last refactorization

	rsvd  *RSVD
	block Mat       // chronological copy of the ring for factorization
	u     Mat       // current orthonormal basis (bins×k)
	proj  []float64 // k-dimensional projection scratch

	refactors   int64
	sanitized   int64
	energyRatio float64
	rankEff     int
}

// NewDenoiser creates a denoiser for spectra of the given bin count
// (STFT WindowSize/2+1). Every workspace the steady state needs is
// allocated here.
func NewDenoiser(cfg DenoiseConfig, bins int) (*Denoiser, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("dsp: NewDenoiser on a disabled config (rank 0)")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if bins < 1 {
		return nil, fmt.Errorf("dsp: denoise bin count %d < 1", bins)
	}
	cfg = cfg.withDefaults()
	rank := cfg.Rank
	if rank > bins {
		rank = bins
	}
	if rank > cfg.Block {
		rank = cfg.Block
	}
	// The randomized SVD runs at its default oversampling and power
	// iterations.
	rs, err := NewRSVD(RSVDConfig{Rank: rank, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	d := &Denoiser{cfg: cfg, bins: bins, rsvd: rs, proj: make([]float64, rank)}
	d.ring.Reshape(bins, cfg.Block)
	d.ring.Zero()
	d.block.Reshape(bins, cfg.Block)
	return d, nil
}

// Push runs one power spectrum through the stage, in place. Corrupt
// cells — NaN, ±Inf or negative, none of which a real power spectrum
// can contain — are replaced by zero and counted before any further
// processing, so the output is always finite and non-negative. During
// warm-up (fewer than Block spectra seen) the input passes through
// sanitized but un-denoised; afterwards it is replaced by its
// projection onto the current rank-k subspace, with the basis
// refactored every Stride windows.
func (d *Denoiser) Push(power []float64) {
	if len(power) != d.bins {
		panic(fmt.Sprintf("dsp: Denoiser.Push got %d bins, want %d", len(power), d.bins))
	}
	for i, v := range power {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			power[i] = 0
			d.sanitized++
		}
	}
	copy(d.ring.Col(d.head), power)
	d.head++
	if d.head == d.cfg.Block {
		d.head = 0
	}
	d.seen++
	if d.seen < int64(d.cfg.Block) {
		return // warm-up: not enough history to estimate a subspace
	}
	if d.refactors == 0 || d.since >= d.cfg.Stride {
		d.refactor()
	} else {
		d.since++
	}
	// Project: x ← U(Uᵀx), clamped to the non-negative orthant. Power
	// spectra are non-negative by construction; the projection can dip
	// below zero where the subspace disagrees with a bin, and a negative
	// "power" would corrupt the energy normalization downstream.
	MulTVecInto(d.proj, &d.u, power)
	MulVecInto(power, &d.u, d.proj)
	for i, v := range power {
		if !(v > 0) { // also catches any residual NaN
			power[i] = 0
		}
	}
}

// refactor recomputes the subspace basis from the current block. The
// ring is copied out in chronological order so the factored matrix — and
// with it the Gaussian sketch applied to it — is a deterministic
// function of the column sequence alone, independent of ring phase.
func (d *Denoiser) refactor() {
	b := d.cfg.Block
	for j := 0; j < b; j++ {
		src := (d.head + j) % b // head points at the oldest column now
		copy(d.block.Col(j), d.ring.Col(src))
	}
	sv := d.rsvd.Factor(&d.u, &d.block, mix64(uint64(d.refactors)))
	d.refactors++
	d.since = 1
	d.rankEff = 0
	var kept float64
	for _, s := range sv {
		if s > 0 {
			d.rankEff++
			kept += s * s
		}
	}
	if total := d.block.FrobeniusSq(); total > 0 {
		d.energyRatio = kept / total
		if d.energyRatio > 1 {
			d.energyRatio = 1 // roundoff can push the estimate just past 1
		}
	} else {
		d.energyRatio = 0
	}
}

// mix64 is a splitmix64 finalization round, used to spread refactor
// ordinals into well-separated sketch seeds.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// Refactors returns how many subspace factorizations have run.
func (d *Denoiser) Refactors() int64 { return d.refactors }

// Sanitized returns how many non-finite spectrogram cells were replaced.
func (d *Denoiser) Sanitized() int64 { return d.sanitized }

// Rank returns the effective subspace rank of the current basis (the
// number of numerically nonzero singular directions kept; 0 before the
// first factorization).
func (d *Denoiser) Rank() int { return d.rankEff }

// EnergyRatio returns the fraction of the last factored block's spectral
// energy captured by the subspace, in [0, 1]. High values on clean
// signal and a drop under noise are the expected signature; a low value
// on clean signal means the rank is too small for the workload.
func (d *Denoiser) EnergyRatio() float64 { return d.energyRatio }

// Windows returns how many spectra have been pushed.
func (d *Denoiser) Windows() int64 { return d.seen }
