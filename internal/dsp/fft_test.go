package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func complexSliceClose(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func randComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return x
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 128, 255, 256} {
		x := randComplex(r, n)
		got := FFT(x)
		want := DFTNaive(x)
		if !complexSliceClose(got, want, 1e-6*float64(n)) {
			t.Errorf("n=%d: FFT disagrees with naive DFT", n)
		}
	}
}

func TestFFTRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64, sizeSel uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + int(sizeSel)%300
		x := randComplex(rr, n)
		y := IFFT(FFT(x))
		return complexSliceClose(x, y, 1e-8*float64(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16 + r.Intn(64)
		x := randComplex(r, n)
		y := randComplex(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx := FFT(x)
		fy := FFT(y)
		fsum := FFT(sum)
		for i := range fsum {
			if cmplx.Abs(fsum[i]-(a*fx[i]+fy[i])) > 1e-7*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(200)
		x := randComplex(r, n)
		fx := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(fx[i])*real(fx[i]) + imag(fx[i])*imag(fx[i])
		}
		ef /= float64(n)
		return math.Abs(et-ef) <= 1e-7*(et+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 256
	const bin = 37
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * bin * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	fx := FFT(x)
	for k := range fx {
		mag := cmplx.Abs(fx[k])
		if k == bin {
			if math.Abs(mag-n) > 1e-6 {
				t.Errorf("bin %d magnitude = %g, want %d", k, mag, n)
			}
		} else if mag > 1e-6 {
			t.Errorf("leakage at bin %d: %g", k, mag)
		}
	}
}

func TestFFTEmptyAndSingle(t *testing.T) {
	if got := FFT(nil); got != nil {
		t.Errorf("FFT(nil) = %v, want nil", got)
	}
	got := FFT([]complex128{3 + 4i})
	if len(got) != 1 || cmplx.Abs(got[0]-(3+4i)) > 1e-12 {
		t.Errorf("FFT of singleton = %v", got)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestWindowProperties(t *testing.T) {
	for _, k := range []WindowKind{Rectangular, Hann, Hamming, Blackman} {
		w := Window(k, 128)
		if len(w) != 128 {
			t.Fatalf("%v: wrong length %d", k, len(w))
		}
		for i, v := range w {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v[%d] = %g outside [0,1]", k, i, v)
			}
		}
		// Symmetry.
		for i := 0; i < len(w)/2; i++ {
			if math.Abs(w[i]-w[len(w)-1-i]) > 1e-12 {
				t.Errorf("%v not symmetric at %d", k, i)
			}
		}
		if g := CoherentGain(w); g <= 0 || g > 1 {
			t.Errorf("%v coherent gain %g outside (0,1]", k, g)
		}
	}
	if g := CoherentGain(Window(Rectangular, 64)); math.Abs(g-1) > 1e-12 {
		t.Errorf("rectangular coherent gain = %g, want 1", g)
	}
	if len(Window(Hann, 0)) != 0 {
		t.Error("zero-length window should be empty")
	}
	if w := Window(Hann, 1); w[0] != 1 {
		t.Errorf("length-1 window = %v, want [1]", w)
	}
}

func TestSTFTFrameCountAndEnergy(t *testing.T) {
	cfg := STFTConfig{WindowSize: 64, HopSize: 32, Window: Hann, SampleRate: 1000}
	sig := make([]float64, 1000)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * 100 * float64(i) / 1000)
	}
	frames, err := STFT(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames := (1000-64)/32 + 1
	if len(frames) != wantFrames {
		t.Fatalf("got %d frames, want %d", len(frames), wantFrames)
	}
	for i, f := range frames {
		if f.Index != i || f.Start != i*32 {
			t.Errorf("frame %d has index %d start %d", i, f.Index, f.Start)
		}
		if len(f.Power) != 33 {
			t.Errorf("frame %d one-sided length %d, want 33", i, len(f.Power))
		} else if slices.Max(f.Power[1:]) <= 0 {
			t.Errorf("frame %d has no power above DC", i)
		}
	}
}

func TestSTFTDetectsToneFrequency(t *testing.T) {
	cfg := STFTConfig{WindowSize: 256, HopSize: 128, Window: Hann, SampleRate: 10000}
	const tone = 1250.0 // exactly bin 32
	sig := make([]float64, 4096)
	for i := range sig {
		sig[i] = math.Sin(2 * math.Pi * tone * float64(i) / cfg.SampleRate)
	}
	frames, err := STFT(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		peaks := FindPeaks(&f, DefaultPeakConfig(), cfg.BinFrequency)
		if len(peaks) == 0 {
			t.Fatalf("frame %d: no peaks", f.Index)
		}
		if math.Abs(peaks[0].Frequency-tone) > cfg.SampleRate/float64(cfg.WindowSize) {
			t.Errorf("frame %d: strongest peak at %g Hz, want %g", f.Index, peaks[0].Frequency, tone)
		}
	}
}

func TestSTFTValidation(t *testing.T) {
	bad := []STFTConfig{
		{WindowSize: 0, HopSize: 1, SampleRate: 1},
		{WindowSize: 8, HopSize: 0, SampleRate: 1},
		{WindowSize: 8, HopSize: 4, SampleRate: 0},
	}
	for _, cfg := range bad {
		if _, err := STFT([]float64{1, 2, 3}, cfg); err == nil {
			t.Errorf("config %+v should be rejected", cfg)
		}
	}
	// Short signal: no frames, no error.
	frames, err := STFT([]float64{1, 2}, STFTConfig{WindowSize: 8, HopSize: 4, SampleRate: 1})
	if err != nil || frames != nil {
		t.Errorf("short signal: frames=%v err=%v", frames, err)
	}
}

func TestFindPeaksEnergyThreshold(t *testing.T) {
	cfg := STFTConfig{WindowSize: 256, HopSize: 256, Window: Hann, SampleRate: 256}
	sig := make([]float64, 256)
	for i := range sig {
		// strong tone at bin 20, weak tone at bin 60
		sig[i] = math.Sin(2*math.Pi*20*float64(i)/256) + 0.02*math.Sin(2*math.Pi*60*float64(i)/256)
	}
	frames, err := STFT(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	peaks := FindPeaks(&frames[0], PeakConfig{MinEnergyFraction: 0.01}, cfg.BinFrequency)
	foundWeak := false
	for _, p := range peaks {
		if p.Bin >= 58 && p.Bin <= 62 {
			foundWeak = true
		}
	}
	if foundWeak {
		t.Error("0.02-amplitude tone (0.04% energy) should fall below the 1% threshold")
	}
	peaks = FindPeaks(&frames[0], PeakConfig{MinEnergyFraction: 1e-6}, cfg.BinFrequency)
	foundWeak = false
	for _, p := range peaks {
		if p.Bin >= 58 && p.Bin <= 62 {
			foundWeak = true
		}
	}
	if !foundWeak {
		t.Error("with a tiny threshold the weak tone should be reported")
	}
}

func TestFindPeaksOrdering(t *testing.T) {
	frame := Frame{Power: make([]float64, 129)}
	frame.Power[10] = 100
	frame.Power[40] = 400
	frame.Power[70] = 200
	peaks := FindPeaks(&frame, PeakConfig{MinEnergyFraction: 0.01}, func(b int) float64 { return float64(b) })
	if len(peaks) != 3 {
		t.Fatalf("got %d peaks, want 3", len(peaks))
	}
	if peaks[0].Bin != 40 || peaks[1].Bin != 70 || peaks[2].Bin != 10 {
		t.Errorf("wrong order: %v", peaks)
	}
}

func TestInterpolatePeakFrequency(t *testing.T) {
	// A symmetric peak should interpolate to its center.
	frame := Frame{Power: []float64{0, 1, 10, 100, 10, 1, 0}}
	f := InterpolatePeakFrequency(&frame, 3, 1)
	if math.Abs(f-3) > 1e-9 {
		t.Errorf("symmetric peak interpolated to %g, want 3", f)
	}
	// A peak skewed right should land between bins 3 and 4.
	frame = Frame{Power: []float64{0, 1, 10, 100, 60, 1, 0}}
	f = InterpolatePeakFrequency(&frame, 3, 1)
	if f <= 3 || f >= 4 {
		t.Errorf("skewed peak interpolated to %g, want (3,4)", f)
	}
	// Edge bins fall back to the bin center.
	if f := InterpolatePeakFrequency(&frame, 0, 1); f != 0 {
		t.Errorf("edge bin: %g", f)
	}
}

func TestDBConversion(t *testing.T) {
	if got := DB(10); math.Abs(got-10) > 1e-12 {
		t.Errorf("DB(10) = %g", got)
	}
	if got := DB(0); !math.IsInf(got, -1) {
		t.Errorf("DB(0) = %g, want -inf", got)
	}
}

func BenchmarkFFT1024(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	x := randComplex(r, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
}

func BenchmarkSTFT(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	sig := make([]float64, 1<<17)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	cfg := STFTConfig{WindowSize: 1024, HopSize: 512, Window: Hann, SampleRate: 1e6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := STFT(sig, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSpectrogramRender(t *testing.T) {
	cfg := STFTConfig{WindowSize: 128, HopSize: 64, Window: Hann, SampleRate: 128000}
	sig := make([]float64, 8192)
	for i := range sig {
		f := 8000.0
		if i > len(sig)/2 {
			f = 24000 // frequency switch halfway through
		}
		sig[i] = math.Sin(2 * math.Pi * f * float64(i) / cfg.SampleRate)
	}
	sg, err := NewSpectrogram(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := sg.Render(16, 60, 1)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 18 { // 16 rows + axis + time labels
		t.Fatalf("rendered %d lines, want 18:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "kHz") || !strings.Contains(out, "ms") {
		t.Error("render lacks axis labels")
	}
	// The signal hops frequency halfway through, so one dark row must have
	// its energy in the left (early) half of the columns and another in
	// the right (late) half.
	var darkEarly, darkLate bool
	for _, line := range lines[:16] {
		cells := line[13:]
		half := len(cells) / 2
		if strings.ContainsAny(cells[:half], "%@#") {
			darkEarly = true
		}
		if strings.ContainsAny(cells[half:], "%@#") {
			darkLate = true
		}
	}
	if !darkEarly || !darkLate {
		t.Errorf("expected strong energy in both time halves:\n%s", out)
	}
	// Degenerate inputs must not panic.
	empty := &Spectrogram{Cfg: cfg}
	if s := empty.Render(4, 4, 0); !strings.Contains(s, "empty") {
		t.Error("empty render")
	}
}
