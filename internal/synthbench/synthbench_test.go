package synthbench

import (
	"reflect"
	"testing"

	"eddie/internal/core"
	"eddie/internal/stream"
)

func TestMachineRegionCount(t *testing.T) {
	if _, err := Machine(0); err == nil {
		t.Error("Machine(0) should fail")
	}
	m, err := Machine(5)
	if err != nil {
		t.Fatal(err)
	}
	for nest := 0; nest < 5; nest++ {
		if m.LoopRegionOf(nest) < 0 {
			t.Errorf("nest %d has no loop region", nest)
		}
	}
	for nest := 0; nest < 4; nest++ {
		if _, ok := m.TransRegionOf(nest, nest+1); !ok {
			t.Errorf("no transition region between nests %d and %d", nest, nest+1)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	m, err := Machine(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(TrainingRuns(m, 3, 4, 10, 5), TrainingRuns(m, 3, 4, 10, 5)) {
		t.Error("TrainingRuns is not deterministic")
	}
	if !reflect.DeepEqual(Stream(m, 50, 5, 1.05), Stream(m, 50, 5, 1.05)) {
		t.Error("Stream is not deterministic")
	}
	run := TrainingRuns(m, 3, 1, 10, 5)[0]
	// 3 nests x 10 windows + 2 transitions x 4 windows.
	if len(run) != 3*10+2*4 {
		t.Errorf("run has %d windows, want %d", len(run), 3*10+2*4)
	}
}

// TestSignalModelSeparatesStreams is the fleet-load benchmark's
// premise: a model trained on clean synthetic captures stays quiet on a
// fresh clean capture and fires on the 5%-shifted anomalous variant.
func TestSignalModelSeparatesStreams(t *testing.T) {
	stft := FleetSTFT()
	peaks := FleetPeaks()
	model, _, err := TrainSignalModel(4, 200_000, stft, peaks)
	if err != nil {
		t.Fatal(err)
	}

	feed := func(shift float64, seed int64) int {
		det, err := stream.NewDetector(model, stream.Config{
			STFT:    stft,
			Peaks:   peaks,
			Monitor: core.DefaultMonitorConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		sig := Signal(200_000, stft, seed, shift)
		return len(det.Feed(sig))
	}

	if n := feed(1, 71); n != 0 {
		t.Errorf("clean synthetic capture fired %d reports", n)
	}
	if n := feed(1.05, 71); n == 0 {
		t.Error("shifted synthetic capture fired no reports")
	}

	if !reflect.DeepEqual(Signal(4096, stft, 7, 1.05), Signal(4096, stft, 7, 1.05)) {
		t.Error("Signal is not deterministic")
	}
}
