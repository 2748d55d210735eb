package dsp

import (
	"math"
	"math/cmplx"
	"sync"
)

// This file implements planned transforms: per-size precomputed twiddle
// tables, bit-reversal swap lists and Bluestein convolution kernels,
// cached process-wide so repeated transforms of the same size (the STFT
// hot loop, parallel run collection) pay the trigonometry exactly once.
//
// Plans are immutable after construction and therefore safe for
// concurrent use from any number of goroutines. Mutable per-call scratch
// is either caller-provided (RFFTPlan) or drawn from an internal
// sync.Pool (Bluestein convolution buffers).
//
// There is one butterfly kernel, the forward radix-2 loop. The inverse
// runs it between two conjugations, IDFT(x) = conj(DFT(conj(x)))/n, and
// every multiply by the trivial twiddle w[0] = (1, -0) is skipped. Both
// rewrites can change only the sign of an exact zero in a complex
// output, so every power spectrum keeps its bits (DESIGN.md §18).

// FFTPlan holds the precomputed tables for complex transforms of one size.
// A plan is immutable and safe for concurrent use.
type FFTPlan struct {
	n int
	// swaps is the bit-reversal permutation as flattened index pairs
	// (i, j), i < j; swapping each pair reorders the input for the
	// in-place butterflies. Power-of-two sizes only.
	swaps []int32
	// quad[q] is the bit reversal of 4q, the input index the fused real
	// pack reads for output position 4q (the reversals of 4q+1..4q+3
	// follow by adding n/2, n/4 and 3n/4). Power-of-two sizes >= 4.
	quad []int32
	// tw holds each butterfly stage's twiddles contiguously: the stage
	// of half-length h (blocks of 2h) reads tw[h-1 : 2h-1], where
	// entry k is exp(-2*pi*i*k/(2h)). Power-of-two sizes only.
	tw []complex128
	// bs holds the Bluestein kernel for non-power-of-two sizes.
	bs *bluesteinPlan
}

// bluesteinPlan is the precomputed chirp-z kernel for one non-power-of-two
// size: DFT_n(x) re-expressed as a circular convolution of power-of-two
// size m >= 2n-1.
type bluesteinPlan struct {
	m int
	// w[k] = exp(-i*pi*k^2/n) is the forward chirp.
	w []complex128
	// bhat is the forward FFT of the padded chirp-conjugate sequence,
	// shared by every convolution of this size.
	bhat []complex128
	// mp is the power-of-two sub-plan of size m.
	mp *FFTPlan
	// scratch pools *[]complex128 convolution buffers of length m.
	scratch sync.Pool
}

// planCache maps transform size -> *FFTPlan. Misses construct a candidate
// and publish it with LoadOrStore, so concurrent first use of one size
// settles on a single shared plan.
var planCache sync.Map

// PlanFFT returns the cached transform plan for size n (n >= 1), building
// it on first use. The returned plan is shared and concurrency-safe.
func PlanFFT(n int) *FFTPlan {
	if v, ok := planCache.Load(n); ok {
		return v.(*FFTPlan)
	}
	v, _ := planCache.LoadOrStore(n, newFFTPlan(n))
	return v.(*FFTPlan)
}

func newFFTPlan(n int) *FFTPlan {
	p := &FFTPlan{n: n}
	if n&(n-1) != 0 {
		p.bs = newBluesteinPlan(n)
		return p
	}
	for i, j := range bitReversal(n) {
		if int(j) > i {
			p.swaps = append(p.swaps, int32(i), j)
		}
	}
	if n >= 4 {
		p.quad = bitReversal(n / 4)
	}
	if n >= 2 {
		p.tw = stageTwiddles(n)
	}
	return p
}

// bitReversal returns the bit-reversal permutation for a power-of-two n.
func bitReversal(n int) []int32 {
	perm := make([]int32, n)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		perm[i] = int32(j)
	}
	return perm
}

// forwardTwiddles returns w[k] = exp(-2*pi*i*k/n) for k in [0, n/2). Each
// factor is computed directly from its angle (no running product), so the
// table carries no accumulated rounding error.
func forwardTwiddles(n int) []complex128 {
	half := n / 2
	tw := make([]complex128, half)
	for k := 0; k < half; k++ {
		ang := -2 * math.Pi * float64(k) / float64(n)
		s, c := math.Sincos(ang)
		tw[k] = complex(c, s)
	}
	return tw
}

// stageTwiddles lays the size-n twiddles out stage by stage: the stage
// of half-length h gets w[k*n/(2h)] for k in [0, h) at offset h-1, the
// same values a strided read of forwardTwiddles(n) would give.
func stageTwiddles(n int) []complex128 {
	w := forwardTwiddles(n)
	tw := make([]complex128, n-1)
	for h := 1; h < n; h <<= 1 {
		step := n / (2 * h)
		for k := 0; k < h; k++ {
			tw[h-1+k] = w[k*step]
		}
	}
	return tw
}

func newBluesteinPlan(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	bp := &bluesteinPlan{m: m, mp: PlanFFT(m)}
	bp.w = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k^2 mod 2n keeps the angle argument small for large k.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := -math.Pi * float64(kk) / float64(n)
		s, c := math.Sincos(ang)
		bp.w[k] = complex(c, s)
	}
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(bp.w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(bp.w[k])
	}
	bp.mp.forwardInPlace(b)
	bp.bhat = b
	bp.scratch.New = func() any {
		s := make([]complex128, m)
		return &s
	}
	return bp
}

// Size returns the transform length the plan was built for.
func (p *FFTPlan) Size() int { return p.n }

// Forward computes the DFT of src into dst (dst and src may alias; both
// must have length Size()).
func (p *FFTPlan) Forward(dst, src []complex128) {
	if p.bs != nil {
		p.bs.transform(dst, src)
		return
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	p.forwardInPlace(dst)
}

// Inverse computes the inverse DFT of src into dst, normalized by 1/n,
// as conj(DFT(conj(src)))/n (dst and src may alias).
func (p *FFTPlan) Inverse(dst, src []complex128) {
	for i, v := range src {
		dst[i] = cmplx.Conj(v)
	}
	p.forwardInPlace(dst)
	s := 1 / float64(p.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*s, -imag(v)*s)
	}
}

// forwardInPlace runs the forward transform in place (any size;
// Bluestein sizes use pooled scratch).
func (p *FFTPlan) forwardInPlace(x []complex128) {
	if p.bs != nil {
		p.bs.transform(x, x)
		return
	}
	n := p.n
	if n < 2 {
		return
	}
	sw := p.swaps
	for i := 0; i+1 < len(sw); i += 2 {
		a, b := sw[i], sw[i+1]
		x[a], x[b] = x[b], x[a]
	}
	// Stage 1 multiplies by w[0] only.
	for k := 0; k+1 < n; k += 2 {
		u, v := x[k], x[k+1]
		x[k], x[k+1] = u+v, u-v
	}
	p.stages(x, 2)
}

// stages runs the radix-2 butterfly stages of half-length h, 2h, ...,
// n/2 over x, which holds the bit-reversed input with every shorter
// stage already applied. Stages run in pairs: one pass over each block
// of 4h applies stage h to the quarters (a, b) and (c, d), then stage
// 2h to (a, c) and (b, d), with the same operations a stage-by-stage
// sweep does, so x is read and written once per two stages. A k = 0
// butterfly multiplies by w[0] and is an add and a subtract.
func (p *FFTPlan) stages(x []complex128, h int) {
	n := len(x)
	for ; 2*h < n; h <<= 2 {
		w1 := p.tw[h-1 : 2*h-1]
		w2 := p.tw[2*h-1 : 4*h-1]
		for start := 0; start < n; start += 4 * h {
			a := x[start : start+h]
			b := x[start+h : start+2*h][:len(a)]
			c := x[start+2*h : start+3*h][:len(a)]
			d := x[start+3*h : start+4*h][:len(a)]
			w1, w2lo, w2hi := w1[:len(a)], w2[:len(a)], w2[h:][:len(a)]
			a0, b0 := a[0]+b[0], a[0]-b[0]
			c0, d0 := c[0]+d[0], c[0]-d[0]
			v := d0 * w2hi[0]
			a[0], c[0] = a0+c0, a0-c0
			b[0], d[0] = b0+v, b0-v
			for k := 1; k < len(a); k++ {
				u, v := a[k], b[k]*w1[k]
				a0, b0 := u+v, u-v
				u, v = c[k], d[k]*w1[k]
				c0, d0 := u+v, u-v
				v = c0 * w2lo[k]
				a[k], c[k] = a0+v, a0-v
				v = d0 * w2hi[k]
				b[k], d[k] = b0+v, b0-v
			}
		}
	}
	if h < n {
		w := p.tw[h-1 : 2*h-1]
		for start := 0; start < n; start += 2 * h {
			lo := x[start : start+h]
			hi := x[start+h : start+2*h][:len(lo)]
			w := w[:len(lo)]
			u, v := lo[0], hi[0]
			lo[0], hi[0] = u+v, u-v
			for k := 1; k < len(lo); k++ {
				u, v := lo[k], hi[k]*w[k]
				lo[k], hi[k] = u+v, u-v
			}
		}
	}
}

// forwardReal packs the length-2n real signal x, tapered by win, into
// work as n complex pairs work[j] = (x[2j]·win[2j], x[2j+1]·win[2j+1])
// and transforms them in place. For power-of-two n >= 4 the taper, the
// pack, the bit reversal and the first two butterfly stages run as one
// pass: output positions 4q..4q+3 read pairs r, r+n/2, r+n/4 and
// r+3n/4 with r = quad[q], the bit reversals of 4q..4q+3.
func (p *FFTPlan) forwardReal(work []complex128, x, win []float64) {
	n := p.n
	if p.quad == nil {
		for j := range work {
			work[j] = complex(x[2*j]*win[2*j], x[2*j+1]*win[2*j+1])
		}
		p.forwardInPlace(work)
		return
	}
	x, win = x[:2*n], win[:2*n]
	w1 := p.tw[2] // stage 2's k = 1 twiddle
	q1, q2, q3 := n/2, n/4, 3*n/4
	for q, r := range p.quad {
		i0, i1, i2, i3 := 2*int(r), 2*(int(r)+q1), 2*(int(r)+q2), 2*(int(r)+q3)
		a0 := complex(x[i0]*win[i0], x[i0+1]*win[i0+1])
		a1 := complex(x[i1]*win[i1], x[i1+1]*win[i1+1])
		a2 := complex(x[i2]*win[i2], x[i2+1]*win[i2+1])
		a3 := complex(x[i3]*win[i3], x[i3+1]*win[i3+1])
		b0, b1 := a0+a1, a0-a1
		b2, b3 := a2+a3, a2-a3
		v := b3 * w1
		o := work[4*q : 4*q+4]
		o[0], o[2] = b0+b2, b0-b2
		o[1], o[3] = b1+v, b1-v
	}
	p.stages(work, 4)
}

// transform runs the forward Bluestein convolution. The inner inverse
// transform is conj(DFT(conj(·))): the first conjugation rides on the
// kernel multiply, the second on the output chirp.
func (bp *bluesteinPlan) transform(dst, src []complex128) {
	n := len(bp.w)
	sp := bp.scratch.Get().(*[]complex128)
	a := *sp
	for k := 0; k < n; k++ {
		a[k] = src[k] * bp.w[k]
	}
	for k := n; k < bp.m; k++ {
		a[k] = 0
	}
	bp.mp.forwardInPlace(a)
	for i, b := range bp.bhat {
		a[i] = cmplx.Conj(a[i] * b)
	}
	bp.mp.forwardInPlace(a) // unnormalized inverse, up to the conjugation below
	scale := complex(1/float64(bp.m), 0)
	for k := 0; k < n; k++ {
		dst[k] = cmplx.Conj(a[k]) * scale * bp.w[k]
	}
	bp.scratch.Put(sp)
}

// RFFTPlan computes one-sided spectra of real-valued signals. For even
// sizes it packs the signal into a half-size complex transform and
// untwists the result (conjugate symmetry halves the butterfly work); odd
// sizes fall back to a full complex transform. Plans are immutable and
// safe for concurrent use; per-call scratch is caller-provided so the
// caller can amortize it across frames.
type RFFTPlan struct {
	n int
	// half is the size-n/2 complex sub-plan (even n >= 2).
	half *FFTPlan
	// untwist[k] = exp(-2*pi*i*k/n) for k in [0, n/2] (even n).
	untwist []complex128
	// full is the size-n fallback plan (odd n, and n == 1).
	full *FFTPlan
}

// rfftCache maps size -> *RFFTPlan.
var rfftCache sync.Map

// PlanRFFT returns the cached real-input plan for size n (n >= 1).
func PlanRFFT(n int) *RFFTPlan {
	if v, ok := rfftCache.Load(n); ok {
		return v.(*RFFTPlan)
	}
	v, _ := rfftCache.LoadOrStore(n, newRFFTPlan(n))
	return v.(*RFFTPlan)
}

func newRFFTPlan(n int) *RFFTPlan {
	p := &RFFTPlan{n: n}
	if n >= 2 && n%2 == 0 {
		p.half = PlanFFT(n / 2)
		p.untwist = make([]complex128, n/2+1)
		for k := range p.untwist {
			ang := -2 * math.Pi * float64(k) / float64(n)
			s, c := math.Sincos(ang)
			p.untwist[k] = complex(c, s)
		}
		return p
	}
	p.full = PlanFFT(n)
	return p
}

// Size returns the real input length the plan was built for.
func (p *RFFTPlan) Size() int { return p.n }

// SpectrumLen returns the one-sided output length, n/2 + 1.
func (p *RFFTPlan) SpectrumLen() int { return p.n/2 + 1 }

// WorkLen returns the scratch length Transform and PowerInto require.
func (p *RFFTPlan) WorkLen() int {
	if p.full != nil {
		return p.n
	}
	return p.n / 2
}

// forward transforms x, tapered by win when win is non-nil, into work:
// the full spectrum for odd sizes, the packed half-size transform Z for
// even ones.
func (p *RFFTPlan) forward(work []complex128, x, win []float64) {
	switch {
	case p.full != nil && win == nil:
		for i, v := range x {
			work[i] = complex(v, 0)
		}
		p.full.forwardInPlace(work)
	case p.full != nil:
		for i, v := range x {
			work[i] = complex(v*win[i], 0)
		}
		p.full.forwardInPlace(work)
	case win == nil:
		for j := range work {
			work[j] = complex(x[2*j], x[2*j+1])
		}
		p.half.forwardInPlace(work)
	default:
		p.half.forwardReal(work, x, win)
	}
}

// untwistBin recovers bin k of the length-n real spectrum from the
// packed half-size transform: X[k] = E[k] + t·O[k] with t the untwist
// factor, where E and O are the DFTs of the even- and odd-indexed
// samples, E[k] = (Z[k]+conj(Z[h-k]))/2 and O[k] = -i·(Z[k]-conj(Z[h-k]))/2.
// z is Z[k] and m is Z[h-k] (both Z[0] at k = 0 and k = h). The halving
// and the multiply by -i are written out on real parts, which moves no
// bit but the sign of an exact zero.
func untwistBin(z, m, t complex128) (re, im float64) {
	er, ei := (real(z)+real(m))*0.5, (imag(z)-imag(m))*0.5
	or, oi := (imag(z)+imag(m))*0.5, (real(z)-real(m))*-0.5
	return er + (real(t)*or - imag(t)*oi), ei + (real(t)*oi + imag(t)*or)
}

// Transform computes the one-sided spectrum X[0..n/2] of the length-n real
// signal x into dst (length SpectrumLen()). work must have length
// WorkLen(); pass the same buffer across calls to stay allocation-free.
// The full two-sided spectrum follows from X[n-k] = conj(X[k]).
func (p *RFFTPlan) Transform(dst []complex128, x []float64, work []complex128) {
	p.forward(work, x, nil)
	if p.full != nil {
		copy(dst, work[:p.n/2+1])
		return
	}
	h := p.n / 2
	dst = dst[:h+1]
	re, im := untwistBin(work[0], work[0], p.untwist[0])
	dst[0] = complex(re, im)
	for k := 1; k < h; k++ {
		re, im = untwistBin(work[k], work[h-k], p.untwist[k])
		dst[k] = complex(re, im)
	}
	re, im = untwistBin(work[0], work[0], p.untwist[h])
	dst[h] = complex(re, im)
}

// PowerInto writes the one-sided power spectrum of x, tapered by win,
// into dst (length SpectrumLen()): dst[k] = |X[k]|^2. The taper is
// applied as the samples are packed; a nil win leaves x untapered.
// work is scratch of length WorkLen().
func (p *RFFTPlan) PowerInto(dst, x, win []float64, work []complex128) {
	p.forward(work, x, win)
	if p.full != nil {
		for k := range dst {
			re, im := real(work[k]), imag(work[k])
			dst[k] = re*re + im*im
		}
		return
	}
	h := p.n / 2
	dst, tw := dst[:h+1], p.untwist[:h+1]
	re, im := untwistBin(work[0], work[0], tw[0])
	dst[0] = re*re + im*im
	for k := 1; k < h; k++ {
		re, im = untwistBin(work[k], work[h-k], tw[k])
		dst[k] = re*re + im*im
	}
	re, im = untwistBin(work[0], work[0], tw[h])
	dst[h] = re*re + im*im
}
