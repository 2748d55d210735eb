package main

import (
	"fmt"
	"runtime"
	"testing"

	"eddie/internal/core"
	"eddie/internal/synthbench"
)

// runDecisionBench times the monitor decision path and the training
// fan-out on the synthetic multi-region benchmark model and writes
// BENCH_decision.json, gated on the median of gateRepeats runs of the
// steady-state Observe benchmark.
// TrainWorkersN is the training scaling (flat when GOMAXPROCS=1; the
// file header records gomaxprocs and num_cpu).
func runDecisionBench(path string) error {
	const (
		nests     = 12
		trainRuns = 16
		windows   = 30
		peaks     = 5
	)
	machine, err := synthbench.Machine(nests)
	if err != nil {
		return err
	}
	runs := synthbench.TrainingRuns(machine, nests, trainRuns, windows, peaks)
	model, err := core.Train("synthbench", machine, runs, core.DefaultTrainConfig())
	if err != nil {
		return err
	}
	clean := synthbench.Stream(machine, 2000, peaks, 1)
	anomalous := synthbench.Stream(machine, 2000, peaks, 1.05)
	fleetSTFT, fleetPeaks := synthbench.FleetSTFT(), synthbench.FleetPeaks()
	fleetModel, _, err := synthbench.TrainSignalModel(4, 200_000, fleetSTFT, fleetPeaks)
	if err != nil {
		return err
	}
	fleetClean, err := synthbench.SignalSTS(200_000, fleetSTFT, fleetPeaks, 101, 1)
	if err != nil {
		return err
	}

	observe := func(model *core.Model, stream []core.STS, scale float64) func(b *testing.B) {
		return func(b *testing.B) {
			mcfg := core.DefaultMonitorConfig()
			mcfg.GroupSizeScale = scale
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
	}
	train := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			tc := core.DefaultTrainConfig()
			tc.Workers = workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Train("synthbench", machine, runs, tc); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	// Steady accept path (the fleet server's common case). The
	// regression gate below anchors on its median row.
	gated := kernelBench{"Observe", nests, observe(model, clean, 0)}
	benches := []kernelBench{
		// Multi-mode/multi-region worst case: groups 5% off all 16
		// modes, scale 8 puts the group size at the paper's maximum 96.
		{"ObserveMultiMode", nests, observe(model, anomalous, 8)},
		// Steady accept path on the fleet benchmarks' trained signal
		// model: one region, four modes of ~778 windows each, so every
		// test counts a long reference against a short group.
		{"ObserveFleetModel", 1, observe(fleetModel, fleetClean, 0)},
		{"TrainWorkers1", nests, train(1)},
		{"TrainWorkers2", nests, train(2)},
		{"TrainWorkers4", nests, train(4)},
	}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		benches = append(benches, kernelBench{fmt.Sprintf("TrainWorkers%d", p), nests, train(p)})
	}

	observeRow := timeMedian(gated, gateRepeats)
	out := runBenches(benches)
	out.Results = append([]benchResult{observeRow}, out.Results...)
	if w1, w4 := out.result("TrainWorkers1"), out.result("TrainWorkers4"); w4.NsPerOp > 0 {
		fmt.Printf("training speedup (1 worker / 4 workers): %.2fx at GOMAXPROCS=%d\n",
			w1.NsPerOp/w4.NsPerOp, out.GOMAXPROCS)
	}
	return writeGated(path, out, []gatedMetric[benchFile]{nsPerOp("Observe")})
}
