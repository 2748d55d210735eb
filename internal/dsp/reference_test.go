package dsp

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// This file keeps the transform kernels as they were before the
// per-stage tables, the trivial-twiddle butterflies, the conjugation
// inverse and the fused taper/pack: one radix-2 loop that reads a flat
// twiddle table at stride n/L and conjugates it for the inverse, a
// Bluestein convolution built on it, and an untwist that indexes with
// modulo and fills a complex spectrum before taking |X|². The planned
// kernels must reproduce its power spectra bit for bit on every finite
// input; FuzzRFFTPower and TestRFFTPowerMatchesReference hold them to it.

// refFFT is the reference kernel's table set for one size.
type refFFT struct {
	n       int
	perm    []int32
	twiddle []complex128
	// Bluestein sizes only.
	m    int
	w    []complex128
	bhat []complex128
	sub  *refFFT
}

var refCache sync.Map

func refPlan(n int) *refFFT {
	if v, ok := refCache.Load(n); ok {
		return v.(*refFFT)
	}
	r := &refFFT{n: n}
	if n&(n-1) == 0 {
		r.perm = bitReversal(n)
		r.twiddle = forwardTwiddles(n)
	} else {
		r.m = 1
		for r.m < 2*n-1 {
			r.m <<= 1
		}
		r.sub = refPlan(r.m)
		r.w = make([]complex128, n)
		for k := 0; k < n; k++ {
			kk := (int64(k) * int64(k)) % int64(2*n)
			s, c := math.Sincos(-math.Pi * float64(kk) / float64(n))
			r.w[k] = complex(c, s)
		}
		r.bhat = make([]complex128, r.m)
		for k := 0; k < n; k++ {
			r.bhat[k] = cmplx.Conj(r.w[k])
		}
		for k := 1; k < n; k++ {
			r.bhat[r.m-k] = cmplx.Conj(r.w[k])
		}
		r.sub.radix2(r.bhat, false)
	}
	v, _ := refCache.LoadOrStore(n, r)
	return v.(*refFFT)
}

// radix2 is the reference butterfly loop: every butterfly multiplies by
// its twiddle, read at stride n/L, conjugated on the fly for the
// inverse (no normalization).
func (r *refFFT) radix2(x []complex128, inverse bool) {
	n := r.n
	if n < 2 {
		return
	}
	for i, j := range r.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := r.twiddle
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		step := n / length
		for start := 0; start < n; start += length {
			ti := 0
			for k := start; k < start+half; k++ {
				w := tw[ti]
				if inverse {
					w = complex(real(w), -imag(w))
				}
				ti += step
				u := x[k]
				v := x[k+half] * w
				x[k] = u + v
				x[k+half] = u - v
			}
		}
	}
}

// forward is the reference in-place forward DFT of any size.
func (r *refFFT) forward(x []complex128) {
	if r.sub == nil {
		r.radix2(x, false)
		return
	}
	n := r.n
	a := make([]complex128, r.m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * r.w[k]
	}
	r.sub.radix2(a, false)
	for i, b := range r.bhat {
		a[i] *= b
	}
	r.sub.radix2(a, true)
	scale := complex(1/float64(r.m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * scale * r.w[k]
	}
}

// refPower is the reference one-sided power spectrum of x, tapered by
// win when win is non-nil.
func refPower(x, win []float64) []float64 {
	n := len(x)
	if win != nil {
		t := make([]float64, n)
		for i := range x {
			t[i] = x[i] * win[i]
		}
		x = t
	}
	spec := make([]complex128, n/2+1)
	if n%2 == 1 || n == 1 {
		work := make([]complex128, n)
		for i, v := range x {
			work[i] = complex(v, 0)
		}
		refPlan(n).forward(work)
		copy(spec, work)
	} else {
		h := n / 2
		work := make([]complex128, h)
		for j := 0; j < h; j++ {
			work[j] = complex(x[2*j], x[2*j+1])
		}
		refPlan(h).forward(work)
		for k := 0; k <= h; k++ {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
			zk := work[k%h]
			zr := cmplx.Conj(work[(h-k)%h])
			e := (zk + zr) * 0.5
			o := (zk - zr) * complex(0, -0.5)
			spec[k] = e + complex(c, s)*o
		}
	}
	power := make([]float64, len(spec))
	for k, v := range spec {
		power[k] = real(v)*real(v) + imag(v)*imag(v)
	}
	return power
}

// checkPowerBits compares PowerInto with the reference bit for bit.
func checkPowerBits(t *testing.T, x, win []float64) {
	t.Helper()
	n := len(x)
	plan := PlanRFFT(n)
	got := make([]float64, plan.SpectrumLen())
	plan.PowerInto(got, x, win, make([]complex128, plan.WorkLen()))
	want := refPower(x, win)
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("n=%d taper=%v bin %d: power %v (%#x), reference %v (%#x)",
				n, win != nil, k, got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
		}
	}
}

// TestRFFTPowerMatchesReference runs every size up to 70 (tiny plans,
// odd sizes, Bluestein halves) and the front end's shapes, tapered and
// not, against the reference kernel.
func TestRFFTPowerMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sizes := []int{256, 500, 512, 998, 1000, 1024, 2048}
	for n := 1; n <= 70; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		x := spectrumDigestSignal(r, n)
		checkPowerBits(t, x, nil)
		checkPowerBits(t, x, Window(Hann, n))
	}
}

// TestComplexMatchesReference holds FFT and IFFT to the reference
// kernel up to the sign of exact zeros, which is all the trivial-twiddle
// skip and the conjugation inverse may move.
func TestComplexMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 3, 100, 1000} {
		x, y := spectrumDigestSignal(r, n), spectrumDigestSignal(r, n)
		z := make([]complex128, n)
		for i := range z {
			z[i] = complex(x[i], y[i])
		}
		want := append([]complex128(nil), z...)
		refPlan(n).forward(want)
		sameUpToZeroSign(t, "FFT", n, FFT(z), want)

		// The reference inverse: conjugate in, forward, conjugate out,
		// then 1/n, as the old Bluestein inverse did; for power-of-two
		// sizes the conjugated-twiddle loop itself.
		want = append(want[:0], z...)
		if n&(n-1) == 0 {
			refPlan(n).radix2(want, true)
		} else {
			for i := range want {
				want[i] = cmplx.Conj(want[i])
			}
			refPlan(n).forward(want)
			for i := range want {
				want[i] = cmplx.Conj(want[i])
			}
		}
		inv := complex(1/float64(n), 0)
		for i := range want {
			want[i] *= inv
		}
		sameUpToZeroSign(t, "IFFT", n, IFFT(z), want)
	}
}

func sameUpToZeroSign(t *testing.T, what string, n int, got, want []complex128) {
	t.Helper()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
	}
	for k := range want {
		if !same(real(got[k]), real(want[k])) || !same(imag(got[k]), imag(want[k])) {
			t.Fatalf("%s n=%d bin %d: %v, reference %v", what, n, k, got[k], want[k])
		}
	}
}

// fuzzSample decodes three bytes into a finite float64: one in eight is
// a signed zero, the rest spread from subnormals to 2^900, so no
// transform intermediate of up to 4096 points overflows.
func fuzzSample(b []byte) float64 {
	if b[0]&7 == 0 {
		if b[0]&8 != 0 {
			return math.Copysign(0, -1)
		}
		return 0
	}
	v := math.Ldexp(1+float64(b[2])/256, min(int(b[1])*8-1100, 900))
	if b[0]&16 != 0 {
		v = -v
	}
	return v
}

// FuzzRFFTPower requires PowerInto to return the reference kernel's
// power spectrum bit for bit. The first two bytes pick the size
// (1..4096), the third the taper, the next eight seed the random fill,
// and every further three bytes override one sample.
func FuzzRFFTPower(f *testing.F) {
	f.Add([]byte{0xff, 0x03, 1, 7, 0, 0, 0, 0, 0, 0, 0})             // 1024, Hann
	f.Add([]byte{0xff, 0x01, 1, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0}) // 512, Hann
	f.Add([]byte{0xe7, 0x03, 0, 3, 0, 0, 0, 0, 0, 0, 0})             // 1000, untapered
	f.Add([]byte{0x06, 0x00, 2, 1, 0, 0, 0, 0, 0, 0, 0})             // 7, random taper
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			t.Skip()
		}
		n := 1 + int(binary.LittleEndian.Uint16(data))%4096
		r := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(data[3:]))))
		x := make([]float64, n)
		b := make([]byte, 3)
		for i := range x {
			r.Read(b)
			x[i] = fuzzSample(b)
		}
		for i, rest := 0, data[11:]; i < n && len(rest) >= 3; i, rest = i+1, rest[3:] {
			x[i] = fuzzSample(rest)
		}
		var win []float64
		switch data[2] % 3 {
		case 1:
			win = Window(Hann, n)
		case 2:
			win = make([]float64, n)
			for i := range win {
				win[i] = r.Float64()
			}
		}
		checkPowerBits(t, x, win)
	})
}

// refFindPeaks is the peak rule as it was before the edge bins were
// peeled off the scan and the band total returned: every bin tests
// both neighbours, with -Inf standing in past the end.
func refFindPeaks(frame *Frame, cfg PeakConfig, binHz func(int) float64) ([]Peak, float64) {
	minBin := cfg.MinBin
	if minBin < 1 {
		minBin = 1
	}
	p := frame.Power
	var total float64
	for i := minBin; i < len(p); i++ {
		total += p[i]
	}
	if total <= 0 {
		return nil, total
	}
	var peaks []Peak
	for i := minBin; i < len(p); i++ {
		left := math.Inf(-1)
		if i > 0 {
			left = p[i-1]
		}
		right := math.Inf(-1)
		if i+1 < len(p) {
			right = p[i+1]
		}
		if p[i] < left || p[i] <= right {
			continue
		}
		power := p[i]
		if i > minBin {
			power += p[i-1]
		}
		if i+1 < len(p) {
			power += p[i+1]
		}
		frac := power / total
		if frac < cfg.MinEnergyFraction {
			continue
		}
		peaks = append(peaks, Peak{Bin: i, Frequency: binHz(i), Power: power, Fraction: frac})
	}
	sortPeaks(peaks)
	return peaks, total
}

// checkPeaksMatch compares FindPeaksInto with the reference rule: the
// same peaks, in the same order, with the same bits, and the same total.
func checkPeaksMatch(t *testing.T, p []float64, cfg PeakConfig) {
	t.Helper()
	binHz := func(b int) float64 { return float64(b) * 1.5 }
	frame := Frame{Power: p}
	got, total := FindPeaksInto(nil, &frame, cfg, binHz)
	want, wantTotal := refFindPeaks(&frame, cfg, binHz)
	bits := math.Float64bits
	if bits(total) != bits(wantTotal) || len(got) != len(want) {
		t.Fatalf("len %d cfg %+v: %d peaks total %v, reference %d peaks total %v",
			len(p), cfg, len(got), total, len(want), wantTotal)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Bin != w.Bin || bits(g.Frequency) != bits(w.Frequency) || bits(g.Power) != bits(w.Power) || bits(g.Fraction) != bits(w.Fraction) {
			t.Fatalf("len %d cfg %+v: peak %d = %+v, reference %+v", len(p), cfg, i, g, w)
		}
	}
}

// TestFindPeaksMatchesReference covers the edge bins (first candidate,
// last bin, a band of one bin, a band past the end), ties, and
// non-finite powers against the reference rule.
func TestFindPeaksMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	special := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), 1, 1}
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(24)
		p := make([]float64, n)
		for i := range p {
			if r.Intn(6) == 0 {
				p[i] = special[r.Intn(len(special))]
			} else {
				p[i] = float64(r.Intn(5))
			}
		}
		for minBin := 0; minBin <= n+1; minBin++ {
			checkPeaksMatch(t, p, PeakConfig{MinEnergyFraction: 0.01 * float64(trial%30), MinBin: minBin})
		}
	}
}
