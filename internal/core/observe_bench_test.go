package core_test

import (
	"fmt"
	"runtime"
	"testing"

	"eddie/internal/core"
	"eddie/internal/synthbench"
)

// synthBenchModel trains the scaled synthetic benchmark model: 12 loop
// regions (plus transitions) with 16 spectral modes each — wide enough
// that the global rejection scan and the per-region training fan-out
// both have real work.
func synthBenchModel(b *testing.B) (*core.Model, []core.STS, []core.STS) {
	b.Helper()
	const nests = 12
	m, err := synthbench.Machine(nests)
	if err != nil {
		b.Fatal(err)
	}
	runs := synthbench.TrainingRuns(m, nests, 16, 30, 5)
	model, err := core.Train("synthbench", m, runs, core.DefaultTrainConfig())
	if err != nil {
		b.Fatal(err)
	}
	clean := synthbench.Stream(m, 2000, 5, 1)
	anomalous := synthbench.Stream(m, 2000, 5, 1.05)
	return model, clean, anomalous
}

// BenchmarkObserveMultiMode is the multi-mode/multi-region decision
// worst case: every monitored group is 5% off all 16 training modes, so
// each window drives the full rejection machinery — mode scan, burst
// test, successor probes and the global scan over all regions. The same
// group is re-tested dozens of times per window against a group sorted
// once per fill slot.
func BenchmarkObserveMultiMode(b *testing.B) {
	model, _, anomalous := synthBenchModel(b)
	mcfg := core.DefaultMonitorConfig()
	mcfg.GroupSizeScale = 8 // n=96: the paper's largest group size
	benchObserve(b, model, mcfg, anomalous)
}

// BenchmarkObserveClean is the steady accept path the fleet server lives
// in: the monitored stream matches the model, the first scanned mode
// accepts.
func BenchmarkObserveClean(b *testing.B) {
	model, clean, _ := synthBenchModel(b)
	benchObserve(b, model, core.DefaultMonitorConfig(), clean)
}

// BenchmarkObserveFleetModel is the steady accept path on the fleet
// benchmarks' trained signal model: one region, four modes of ~778
// windows each, groups of a few windows. Its trained references are
// long, as real ones are, so the per-test K-S cost sits in the
// reference-counting kernel rather than in the group.
func BenchmarkObserveFleetModel(b *testing.B) {
	stft, peaks := synthbench.FleetSTFT(), synthbench.FleetPeaks()
	model, _, err := synthbench.TrainSignalModel(4, 200_000, stft, peaks)
	if err != nil {
		b.Fatal(err)
	}
	clean, err := synthbench.SignalSTS(200_000, stft, peaks, 101, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchObserve(b, model, core.DefaultMonitorConfig(), clean)
}

// benchObserve warms a monitor over one pass of stream, then times
// Observe cycling through it.
func benchObserve(b *testing.B, model *core.Model, mcfg core.MonitorConfig, stream []core.STS) {
	mon, err := core.NewMonitor(model, mcfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := range stream {
		mon.Observe(&stream[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(&stream[i%len(stream)])
	}
}

// BenchmarkTrain measures the per-region training fan-out: 12 loop
// regions, 16 runs each, leave-one-out group-size sweeps per region.
// Workers=1 is the serial baseline; scaling should be near-linear until
// the region count or the core count runs out.
func BenchmarkTrain(b *testing.B) {
	const nests = 12
	m, err := synthbench.Machine(nests)
	if err != nil {
		b.Fatal(err)
	}
	runs := synthbench.TrainingRuns(m, nests, 16, 30, 5)
	workerCounts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			tc := core.DefaultTrainConfig()
			tc.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train("synthbench", m, runs, tc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
