package core_test

import (
	"reflect"
	"testing"

	"eddie/internal/cfg"
	"eddie/internal/core"
	"eddie/internal/mibench"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// TestTrainWorkerCountDeterministic pins the parallel-training contract:
// every worker count builds the byte-identical model. Regions are
// independent, results land in index-addressed slots, and assembly is in
// region-id order, so only scheduling varies. The synthetic machine
// sweeps several worker counts; every mibench workload (a three-workload
// subset in short mode) rebuilds its default-parallelism fixture model
// serially from the same runs and compares byte for byte.
func TestTrainWorkerCountDeterministic(t *testing.T) {
	t.Run("synthetic", func(t *testing.T) {
		m := core.SyntheticMachine(t)
		runs := core.SynthTrainingRuns(m, 8, 100e3, 250e3)
		base := trainWorkers(t, "synthetic", m, runs, 1)
		for _, workers := range []int{2, 3, 8, 0} {
			if model := trainWorkers(t, "synthetic", m, runs, workers); !reflect.DeepEqual(base, model) {
				t.Errorf("workers=%d: model differs from serial build", workers)
			}
		}
	})
	var names []string
	for _, w := range mibench.All() {
		names = append(names, w.Name)
	}
	if testing.Short() {
		names = names[:3]
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			f := pipetest.Train(t, name, pipetest.TinyConfig(), 5)
			runs, err := pipeline.CollectRuns(f.W, f.Machine, f.Config, 0, f.TrainRuns, nil)
			if err != nil {
				t.Fatal(err)
			}
			serial := trainWorkers(t, f.W.Name, f.Machine, runs, 1)
			// Prime the lazy region-id cache on both sides: DeepEqual sees
			// the unexported cache fields, and whether the shared fixture's
			// cache is already populated depends on which tests ran first.
			f.Model.RegionIDs()
			serial.RegionIDs()
			if !reflect.DeepEqual(f.Model, serial) {
				t.Error("serial training differs from the default-parallelism fixture")
			}
		})
	}
}

func trainWorkers(t *testing.T, name string, m *cfg.Machine, runs [][]core.STS, workers int) *core.Model {
	t.Helper()
	tc := core.DefaultTrainConfig()
	tc.Workers = workers
	model, err := core.Train(name, m, runs, tc)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return model
}
