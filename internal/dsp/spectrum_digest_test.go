package dsp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"
)

// spectrumDigests pins the transform kernels bit for bit. The "power"
// keys hash the one-sided power spectrum of PowerSpectrum (the
// untapered RFFTPlan power path) and the "stft" keys every frame of a
// Hann-tapered STFT (the tapered path the front end runs). The
// "complex" keys hash FFT, IFFT and FFTReal outputs with every -0
// rewritten to +0: a kernel that skips a multiply by the trivial
// twiddle (1, -0) may flip the sign of an exact zero in a complex
// output, which no power spectrum can see, but must move no other bit.
// Sizes cover every power of two from 2 to 4096, one Bluestein real
// size (1000, whose half-size transform is not a power of two) and one
// odd size (999, which takes the full complex fallback).
var spectrumDigests = map[string]string{
	"power/n2":      "e28b28b7d7e2eee8a8f0f0a7a5b0c8bb1617f9407b3ad4d76a062516be0b2ac8",
	"complex/n2":    "17f02b8b8455386afe8163fa429d9b89224d431031f86f96b4bc138ebd665bfb",
	"power/n4":      "4e6cb205cd381ba3fb6c4d118ff3e4f2fde9dc391d1623962234bb27613aa63f",
	"complex/n4":    "afa8c4df72fea03403872207cdb3a32bdd1e75f4f825ec235737509c0e7f9d46",
	"power/n8":      "e914c2e4a52bd7b79aeaca7be2d25dc3099650492065ec94bb95035a687be0a4",
	"complex/n8":    "c59392d8980a6d381831afcabf687ff552c42f649389cee2e0c9f1f63e9c0a19",
	"power/n16":     "157af6a719e254ce1c8b02813b29768c089a361a5225eb732337c8c0afcbcd9f",
	"complex/n16":   "d2e338db0735a9fada79b69d9e9d64088eff25b31359542ad43bda8c8ac9c017",
	"power/n32":     "2ea5e8a98cacc42ab2352589565b23ef9d17b6a084fb67c48bc6dcac9979d9f0",
	"complex/n32":   "493b64790ff65b3046da66f6712878f2451582415828132052b305f17ab78d17",
	"power/n64":     "52ef85e614471363299d861f01f75c5c28e9c2d720674a3d5a08f8e1fd12d523",
	"complex/n64":   "dcc95f380bc9c8f11bc839391546d02862fb00454bfa960aea084bb5404b19c5",
	"power/n128":    "6eefaa9991fd26c0bc4ae2910432d26bd2382f52578e576521b26279431f426a",
	"complex/n128":  "af1cb40faadbf4a9a18e9a416116c9d90c2cbea9aa3baa79a8825a65841a5196",
	"power/n256":    "826f81819e919d55efb1691159296fec93795ef441341eec566769bde4a1a220",
	"complex/n256":  "33cb12e5efbb8448de5856e637a773d483d8ea504a7160f0741b5ac4cabbcf4c",
	"power/n512":    "1062ff033059a4deb34dbea3b06cd44d186378505ecb3777587aee900c9ef70f",
	"complex/n512":  "74c04f30608239170c8c3e7e749ad73b7cb5c3629a2998730466f016c7334255",
	"power/n1024":   "1552bf69364ad0032f6c27d1b0693ffd750ffd62be25c45496db4d7df8288a1d",
	"complex/n1024": "437769c06f4a374d13a154786ae96fc7aec83e48577c184fba473a77af43b35f",
	"power/n2048":   "4dccba5a3081ba5faae8f1b77a47362bb4f1cc0944a85d367ea71d2560d2c6aa",
	"complex/n2048": "f7f16f9ee9e095a81c37b20e3ae693e2c5fbb6718cfc97def2a2e04817a37daa",
	"power/n4096":   "d91c99480e88990c1b476a55baa16baafbb30be836a9a7aaa818e3f7c655e723",
	"complex/n4096": "8eb5237edf38ceac28ea3d486219c19ddc9331e24da8af5ce2b45d579425e934",
	"power/n1000":   "43193963358e5c81d4b5c29509c2bcf58bc92fa5ca0d03ef7ffbd44f09a8a32f",
	"complex/n1000": "266cf1e87de94999ab9d142d322a2e848cb0cfbfbfab227d5ca8bbd271e47300",
	"power/n999":    "174c6b42f541e13c67a7b1cde942e94e575962a113746dea6d42c4bd21e3b69d",
	"complex/n999":  "25544220504239688cad6dc5b084c9419f755510a7e054b2f8499b312c0bcdb1",
	"stft/512x256":  "e6d6f3ace46f44aa3528dc569e3a5d0a3f0df141df53b1555c119d4f25712eb1",
	"stft/1024x256": "a70534b2734e14a7b5d5b05cebb8d893c2f1244f1517210021638a0a6e07c9e5",
	"stft/1000x250": "f108e6c41629e0cbfd184eed910b67a28b8a3a10e545ce702361a54c3763e5f5",
}

// spectrumDigestSizes are the transform lengths the digests cover.
var spectrumDigestSizes = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 1000, 999}

// spectrumDigestSignal returns n random values whose magnitudes spread
// log-uniformly over 1e-10..1e10 with random signs; one value in eight
// is an exact zero, so butterflies meet zero operands.
func spectrumDigestSignal(r *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if r.Intn(8) == 0 {
			continue
		}
		x[i] = math.Pow(10, 20*r.Float64()-10)
		if r.Intn(2) == 0 {
			x[i] = -x[i]
		}
	}
	return x
}

// putCanonical hashes complex values with -0 rewritten to +0.
func putCanonical(h hash.Hash, xs []complex128) {
	for _, v := range xs {
		re, im := real(v), imag(v)
		if re == 0 {
			re = 0
		}
		if im == 0 {
			im = 0
		}
		putBits(h, []float64{re, im})
	}
}

func TestSpectrumDigests(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, n := range spectrumDigestSizes {
		x := spectrumDigestSignal(r, n)
		h := sha256.New()
		putBits(h, PowerSpectrum(x))
		checkSpectrumDigest(t, fmt.Sprintf("power/n%d", n), h)

		y := spectrumDigestSignal(r, n)
		z := make([]complex128, n)
		for i := range z {
			z[i] = complex(x[i], y[i])
		}
		h = sha256.New()
		putCanonical(h, FFT(z))
		putCanonical(h, IFFT(z))
		putCanonical(h, FFTReal(x))
		checkSpectrumDigest(t, fmt.Sprintf("complex/n%d", n), h)
	}
	for _, sh := range []struct{ window, hop int }{{512, 256}, {1024, 256}, {1000, 250}} {
		x := spectrumDigestSignal(r, 24*sh.hop+sh.window)
		frames, err := STFT(x, STFTConfig{WindowSize: sh.window, HopSize: sh.hop, Window: Hann, SampleRate: 2e6})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, f := range frames {
			putBits(h, f.Power)
		}
		checkSpectrumDigest(t, fmt.Sprintf("stft/%dx%d", sh.window, sh.hop), h)
	}
}

func checkSpectrumDigest(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	if got, want := hex.EncodeToString(h.Sum(nil)), spectrumDigests[key]; got != want {
		t.Errorf("%s: digest %s, want %s", key, got, want)
	}
}
