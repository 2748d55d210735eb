package core_test

import (
	"testing"

	"eddie/internal/allocguard"
	"eddie/internal/core"
	"eddie/internal/obs"
	"eddie/internal/pipeline"
	"eddie/internal/pipeline/pipetest"
)

// monitorFeed builds a monitor over the tiny fixture plus one collected
// run to feed it, warmed so ring and outcome buffers have reached steady
// state before any measurement.
func monitorFeed(tb testing.TB, mcfg core.MonitorConfig) (*core.Monitor, []core.STS) {
	tb.Helper()
	f := pipetest.Tiny(tb)
	run, err := pipeline.CollectRun(f.W, f.Machine, f.Config, 900, nil)
	if err != nil {
		tb.Fatal(err)
	}
	mon, err := core.NewMonitor(f.Model, mcfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Warm-up pass: fill the history ring, grow the outcome buffers and
	// the per-rank scratch to their steady-state capacities.
	for i := range run.STS {
		mon.Observe(&run.STS[i])
	}
	return mon, run.STS
}

// TestObserveDisabledObsZeroAlloc pins the contract the obs layer is
// built around: with Trace, Flight and Stats all nil (the default
// configuration), the monitor's decision loop performs zero heap
// allocations per observed window. Each measured pass observes the
// whole run, then empties the outcome and report history, which would
// otherwise grow by a report per pass; one allocation anywhere in the
// pass fails the guard.
func TestObserveDisabledObsZeroAlloc(t *testing.T) {
	mon, sts := monitorFeed(t, core.DefaultMonitorConfig())
	allocguard.Zero(t, "disabled-observability Observe", 4, len(sts), func(i int) {
		mon.Observe(&sts[i])
		if i == len(sts)-1 {
			mon.TrimHistory(0)
		}
	})
}

func BenchmarkObserveDisabled(b *testing.B) {
	mon, sts := monitorFeed(b, core.DefaultMonitorConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(&sts[i%len(sts)])
	}
}

func BenchmarkObserveFlight(b *testing.B) {
	mcfg := core.DefaultMonitorConfig()
	mcfg.Flight = obs.NewFlightRecorder(0)
	mon, sts := monitorFeed(b, mcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(&sts[i%len(sts)])
	}
}

func BenchmarkObserveTraceAndFlight(b *testing.B) {
	mcfg := core.DefaultMonitorConfig()
	mcfg.Flight = obs.NewFlightRecorder(0)
	mcfg.Trace = obs.NewRecorder()
	mon, sts := monitorFeed(b, mcfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(&sts[i%len(sts)])
	}
}
