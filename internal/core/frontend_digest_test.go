package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"eddie/internal/dsp"
)

// frontendDigests pins every STS that Frontend.Capture produces bit for
// bit: peak frequencies, energy and start time, at the offline IoT
// pipeline's shape (512-sample window, 256 hop) and the fleet shape
// (1024, 256), each with and without the stream_drift rank-3
// denoiser. A rewrite of the FFT, the taper, the peak rule or the
// energy sum that moves any bit of any STS changes a digest.
var frontendDigests = map[string]string{
	"capture/512x256":        "84df43e384117c20cc827fad9da84ae71087bb4273a4c4acafa88ae9bed7be4b",
	"capture/512x256/rank3":  "71f827362385c3d395d6ea7976b0db2935b51f37ff614835a460ef0ba8317f62",
	"capture/1024x256":       "023b144145c4c4c7967f93ae69229e98f1ae1fc8d2f98ea42f9da3e8c2b3a8e9",
	"capture/1024x256/rank3": "a043082237dba09ee2be3044be3be2f78643ea39e981462ca8ded247190c11cc",
}

func TestFrontendDigests(t *testing.T) {
	_, peaks := frontendTestConfig()
	for _, shape := range []struct{ window, hop int }{{512, 256}, {1024, 256}} {
		stft := dsp.STFTConfig{WindowSize: shape.window, HopSize: shape.hop, Window: dsp.Hann, SampleRate: 2e6}
		x := frontendTestSignal(160*shape.hop+shape.window, stft)
		for _, dn := range []dsp.DenoiseConfig{{}, {Rank: 3, Block: 32, Stride: 8}} {
			key := fmt.Sprintf("capture/%dx%d", shape.window, shape.hop)
			if dn.Enabled() {
				key += fmt.Sprintf("/rank%d", dn.Rank)
			}
			fe, err := NewFrontend(stft, peaks, dn)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var b [8]byte
			put := func(v float64) {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
			for _, s := range fe.Capture(x) {
				put(float64(len(s.PeakFreqs)))
				for _, f := range s.PeakFreqs {
					put(f)
				}
				put(s.Energy)
				put(s.TimeSec)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), frontendDigests[key]; got != want {
				t.Errorf("%s: digest %s, want %s", key, got, want)
			}
		}
	}
}
