package pipeline

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/dsp"
	"eddie/internal/mibench"
	"eddie/internal/obs"
	"eddie/internal/sim"
	"eddie/internal/trace"
)

// composeReduce is the offline reduction spelled out frame by frame:
// dsp.STFT over the detrended capture, the denoiser over each frame's
// power in order, trace.LabelFrames and core.ExtractSTS. External
// harnesses compose exactly this (each stage under its own timer) and
// require it to equal Reduce, so the composition is part of the API.
func composeReduce(t *testing.T, signal []float64, res *sim.RunResult, c Config) []core.STS {
	t.Helper()
	frames, err := dsp.STFT(dsp.Detrend(signal), c.STFT)
	if err != nil {
		t.Fatal(err)
	}
	if c.Denoise.Enabled() {
		dn, err := dsp.NewDenoiser(c.Denoise, c.STFT.WindowSize/2+1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frames {
			dn.Push(frames[i].Power)
		}
	}
	return core.ExtractSTS(trace.LabelFrames(frames, c.STFT, res), c.STFT, c.Peaks)
}

// TestReduceMatchesFrameComposition pins Reduce to the frame-by-frame
// composition: reflect.DeepEqual, so not only every peak, energy, label
// and timestamp but also the non-nil-ness of every PeakFreqs slice (a
// peakless window holds an empty slice, never nil) and of the result
// itself (a capture shorter than one window reduces to an empty, non-nil
// sequence).
func TestReduceMatchesFrameComposition(t *testing.T) {
	w := mibench.Bitcount()
	machine, err := cfg.BuildMachine(w.Program)
	if err != nil {
		t.Fatal(err)
	}
	c := DefaultConfig() // EM channel: the Table 1 capture
	c.MaxInstrs = 2_000_000
	rec := obs.NewRecorder()
	c.Trace = rec
	run, err := CollectRun(w, machine, c, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runTrackSpans(t, rec), []string{"simulate", "em_channel", "detrend", "reduce"}; !reflect.DeepEqual(got, want) {
		t.Errorf("run track spans %q, want %q", got, want)
	}
	c.Trace = nil
	ws := c.STFT.WindowSize

	zeroed := append([]float64(nil), run.Signal...)
	mid := len(zeroed) / 2
	for i := mid; i < mid+8*ws && i < len(zeroed); i++ {
		zeroed[i] = 0
	}
	denoised := c
	denoised.Denoise = dsp.DenoiseConfig{Rank: 3, Block: 16, Stride: 4, Seed: 5}

	for _, tc := range []struct {
		name     string
		signal   []float64
		c        Config
		peakless bool // some window must have no peaks
	}{
		{"capture", run.Signal, c, false},
		{"capture denoised", run.Signal, denoised, false},
		{"zeroed stretch", zeroed, c, true},
		{"shorter than one window", run.Signal[:ws-1], c, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Reduce(tc.signal, run.Sim, tc.c)
			if err != nil {
				t.Fatal(err)
			}
			want := composeReduce(t, tc.signal, run.Sim, tc.c)
			if !reflect.DeepEqual(got, want) {
				for i := range want {
					if i >= len(got) || !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("first difference at window %d of %d (got %d windows)", i, len(want), len(got))
					}
				}
				t.Fatalf("Reduce differs from the frame composition (%d vs %d windows, nil %v vs %v)",
					len(got), len(want), got == nil, want == nil)
			}
			if got == nil {
				t.Fatal("Reduce returned nil, want a non-nil sequence")
			}
			peakless := 0
			for i := range got {
				if len(got[i].PeakFreqs) == 0 {
					peakless++
				}
			}
			if tc.peakless && peakless == 0 {
				t.Error("no peakless window: the case does not exercise empty PeakFreqs")
			}
		})
	}
}

// runTrackSpans returns the names of the spans recorded on the
// recorder's one run track, in order.
func runTrackSpans(t *testing.T, rec *obs.Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			names = append(names, e.Name)
		}
	}
	return names
}
