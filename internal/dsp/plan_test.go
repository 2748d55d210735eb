package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// TestFFTAccuracyLargeN is the twiddle-factor regression test: the old
// radix-2 kernel generated twiddles with a running product (w *= wl),
// accumulating one rounding error per butterfly column. The planned
// kernel computes each table entry directly from math.Sincos, so even at
// n=4096 the transform must agree with the naive DFT to near machine
// precision relative to the signal's magnitude.
func TestFFTAccuracyLargeN(t *testing.T) {
	const n = 4096
	r := rand.New(rand.NewSource(7))
	x := randComplex(r, n)
	want := DFTNaive(x)
	got := FFT(x)

	var scale float64
	for _, v := range want {
		if m := cmplx.Abs(v); m > scale {
			scale = m
		}
	}
	var worst float64
	for k := range want {
		if d := cmplx.Abs(got[k] - want[k]); d > worst {
			worst = d
		}
	}
	// Direct-twiddle FFTs stay near sqrt(log n)*eps relative error (the
	// measured value here is ~1.5e-12 relative, most of it from the naive
	// reference); the recurrence version drifts an order of magnitude
	// further as its running product accumulates one rounding per column.
	if limit := 1e-11 * scale; worst > limit {
		t.Fatalf("n=%d: max |FFT-DFT| = %g, want <= %g (relative %g)", n, worst, limit, worst/scale)
	}
}

// TestRFFTMatchesComplexFFT checks the conjugate-symmetry path against the
// full complex transform for even sizes (packed half-size kernel), odd
// sizes (full-plan fallback) and the degenerate sizes 1 and 2.
func TestRFFTMatchesComplexFFT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 4, 6, 16, 63, 100, 255, 256, 1000, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		full := make([]complex128, n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		want := FFT(full)

		plan := PlanRFFT(n)
		if plan.Size() != n {
			t.Fatalf("n=%d: plan.Size() = %d", n, plan.Size())
		}
		spec := make([]complex128, plan.SpectrumLen())
		work := make([]complex128, plan.WorkLen())
		plan.Transform(spec, x, work)
		for k := 0; k < plan.SpectrumLen(); k++ {
			if d := cmplx.Abs(spec[k] - want[k]); d > 1e-9 {
				t.Fatalf("n=%d bin %d: rfft %v, fft %v (|diff| %g)", n, k, spec[k], want[k], d)
			}
		}

		power := make([]float64, plan.SpectrumLen())
		plan.PowerInto(power, x, nil, work)
		for k := range power {
			w := real(want[k])*real(want[k]) + imag(want[k])*imag(want[k])
			if math.Abs(power[k]-w) > 1e-7*(1+w) {
				t.Fatalf("n=%d bin %d: power %g, want %g", n, k, power[k], w)
			}
		}
	}
}

// TestFFTRealMatchesNaive covers the public FFTReal wrapper (full
// two-sided spectrum with mirrored upper half).
func TestFFTRealMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 15, 64} {
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		full := make([]complex128, n)
		for i, v := range x {
			full[i] = complex(v, 0)
		}
		want := DFTNaive(full)
		got := FFTReal(x)
		if !complexSliceClose(got, want, 1e-9) {
			t.Fatalf("n=%d: FFTReal disagrees with naive DFT", n)
		}
	}
}

// TestPlanCacheConcurrent hammers the plan caches from many goroutines
// with mixed sizes — run under -race this is the data-race regression
// test for the sync.Map/sync.Once plan construction and the Bluestein
// scratch pool.
func TestPlanCacheConcurrent(t *testing.T) {
	sizes := []int{16, 60, 64, 100, 128, 255, 256, 384, 1000, 1024}
	refs := make(map[int][]complex128, len(sizes))
	for _, n := range sizes {
		r := rand.New(rand.NewSource(int64(n)))
		refs[n] = FFT(randComplex(r, n))
	}
	cfg := STFTConfig{WindowSize: 256, HopSize: 128, Window: Hann, SampleRate: 1e6}
	sig := make([]float64, 4096)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * float64(i) / 32)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				n := sizes[(g+iter)%len(sizes)]
				r := rand.New(rand.NewSource(int64(n)))
				got := FFT(randComplex(r, n))
				if !complexSliceClose(got, refs[n], 1e-9) {
					t.Errorf("goroutine %d: FFT(n=%d) changed under concurrency", g, n)
					return
				}
				if _, err := STFT(sig, cfg); err != nil {
					t.Errorf("goroutine %d: STFT: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSTFTAllocFree verifies the hot-loop contract: after plan warmup, the
// per-frame allocation count is ~zero (only the frames slice, the shared
// power backing array and the three reusable buffers are allocated per
// call, independent of frame count).
func TestSTFTAllocFree(t *testing.T) {
	sig := make([]float64, 1<<15)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * float64(i) / 64)
	}
	cfg := STFTConfig{WindowSize: 1024, HopSize: 512, Window: Hann, SampleRate: 1e6}
	if _, err := STFT(sig, cfg); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := STFT(sig, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// 63 frames; the fixed overhead is ~5 allocations (window, frames
	// header, power backing, work, plan lookup interfaces).
	if allocs > 16 {
		t.Fatalf("STFT allocations per call = %v, want <= 16 (fixed, not per-frame)", allocs)
	}
}

func BenchmarkFFTPow2(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randComplex(r, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkFFTBluestein(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randComplex(r, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkRFFT1024(b *testing.B) {
	x := make([]float64, 1024)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(i) / 64)
	}
	plan := PlanRFFT(len(x))
	power := make([]float64, plan.SpectrumLen())
	work := make([]complex128, plan.WorkLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.PowerInto(power, x, nil, work)
	}
}
