package dsp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"
)

// denoiseDigests pins the raw output of the subspace kernels bit for
// bit: RSVD.Factor's basis and singular values over a run of blocks and
// seeds, and every spectrum Denoiser.Push returns. The denoise goldens
// compare downstream verdicts at a tolerance and cannot show that a
// rewrite of MulATBInto or Orthonormalize kept every bit; this table
// can. Each key names the shape; each value is the SHA-256 of the raw
// IEEE-754 bits, first the factorizations, then the denoised spectra.
var denoiseDigests = map[string]string{
	"factor/bins257/block32/rank3":  "5b7e273ee740b6ab7cb2bab1f758b52a4cf8607e8ac366edeb8d56ceb935d376",
	"factor/bins257/block32/rank6":  "fb50e6d538cb7af8d29fdf7021c7c8868decdea6dfa67f2a5df55538801ea011",
	"factor/bins131/block19/rank5":  "1908041d4555dbf706084faa6d787cf664acd950006ff8c1709c2dc264408c1d",
	"push/bins257/block32/rank3/s8": "7246ce7b97ea863826b70dd0aa56aa4d482e0cf37bcc3aa125ce78ef7c210784",
	"push/bins257/block32/rank6/s8": "f1ed90f6601e5bd1afdf644b7fadce0c9b8ed2b516fe5f84358f8971aa60cf1d",
	"push/bins131/block19/rank5/s5": "059d1f7bbcddc395fd99eb73b92296b5d6bc4168dce4b09bb10b9ea2c8a96eb5",
}

// digestShapes are the shapes the digests cover: the stream_drift
// detector's (rank 3, block 32, stride 8), the denoise bench's rank 6,
// and one whose bin, block and sketch column counts (131, 19 and 9)
// are not multiples of four, so a blocked kernel's tail loop shows.
var digestShapes = []struct {
	bins, block, rank, stride int
}{
	{257, 32, 3, 8},
	{257, 32, 6, 8},
	{131, 19, 5, 5},
}

// digestSpectrum is window w of the fixed spectra sequence: breathing
// spectral lines plus squared-Gaussian noise, as the denoiser sees on a
// noisy channel. Every eighth window carries a sparse burst of large
// values so the clamp and the sanitizer are exercised too.
func digestSpectrum(dst, noise []float64, w int) {
	noisySpectrum(dst, w, 0.8, noise)
	if w%8 == 3 {
		for i := w % 5; i < len(dst); i += 17 {
			dst[i] += 60
		}
	}
	if w%29 == 7 {
		dst[w%len(dst)] = math.NaN()
	}
}

func TestDenoiseDigests(t *testing.T) {
	for _, sh := range digestShapes {
		noise := make([]float64, sh.bins)
		spectra := make([][]float64, 4*sh.block)
		for w := range spectra {
			spectra[w] = make([]float64, sh.bins)
			digestSpectrum(spectra[w], noise, w)
		}

		key := fmt.Sprintf("factor/bins%d/block%d/rank%d", sh.bins, sh.block, sh.rank)
		h := sha256.New()
		rs, err := NewRSVD(RSVDConfig{Rank: sh.rank, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		a := NewMat(sh.bins, sh.block)
		var u Mat
		for start := 0; start+sh.block <= len(spectra); start += sh.block / 2 {
			for j := 0; j < sh.block; j++ {
				col := a.Col(j)
				copy(col, spectra[start+j])
				for i, v := range col {
					if v != v {
						col[i] = 0 // Factor's input is sanitized by Push
					}
				}
			}
			sv := rs.Factor(&u, a, uint64(start)*7+1)
			putBits(h, u.Data)
			putBits(h, sv)
		}
		checkDigest(t, key, h)

		key = fmt.Sprintf("push/bins%d/block%d/rank%d/s%d", sh.bins, sh.block, sh.rank, sh.stride)
		h = sha256.New()
		dn, err := NewDenoiser(DenoiseConfig{Rank: sh.rank, Block: sh.block, Stride: sh.stride}, sh.bins)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]float64, sh.bins)
		for _, s := range spectra {
			copy(buf, s)
			dn.Push(buf)
			putBits(h, buf)
		}
		putBits(h, []float64{dn.EnergyRatio(), float64(dn.Rank()), float64(dn.Refactors())})
		checkDigest(t, key, h)
	}
}

func checkDigest(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	if got, want := hex.EncodeToString(h.Sum(nil)), denoiseDigests[key]; got != want {
		t.Errorf("%s: digest %s, want %s", key, got, want)
	}
}

func putBits(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

// TestMulATBIntoMatchesDot holds the blocked transpose product to a
// plain dot loop bit for bit at every column count through two full
// blocks of four plus each tail length, with row counts both on and
// off a multiple of four.
func TestMulATBIntoMatchesDot(t *testing.T) {
	for _, rows := range []int{1, 13, 257} {
		for cols := 1; cols <= 9; cols++ {
			a := randMat(rows, cols, uint64(rows*31+cols))
			b := randMat(rows, 3, uint64(rows*17+cols))
			var got Mat
			MulATBInto(&got, a, b)
			x := b.Col(1)
			vec := make([]float64, cols)
			MulTVecInto(vec, a, x)
			for j := 0; j < b.Cols; j++ {
				for i := 0; i < cols; i++ {
					want := plainDot(a.Col(i), b.Col(j))
					if g := got.At(i, j); math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("%dx%d: aᵀb[%d,%d] = %v, dot = %v", rows, cols, i, j, g, want)
					}
				}
			}
			for i := range vec {
				if want := plainDot(a.Col(i), x); math.Float64bits(vec[i]) != math.Float64bits(want) {
					t.Fatalf("%dx%d: aᵀx[%d] = %v, dot = %v", rows, cols, i, vec[i], want)
				}
			}
		}
	}
}

// plainDot is the reference inner product: one accumulator, index order.
func plainDot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// BenchmarkRSVDFactor times one factorization at the stream_drift
// detector's shape: a 257-bin, 32-window block at rank 3.
func BenchmarkRSVDFactor(b *testing.B) {
	const bins, block = 257, 32
	noise := make([]float64, bins)
	a := NewMat(bins, block)
	for j := 0; j < block; j++ {
		noisySpectrum(a.Col(j), j, 0.8, noise)
	}
	rs, err := NewRSVD(RSVDConfig{Rank: 3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var u Mat
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Factor(&u, a, uint64(i)+1)
	}
}
